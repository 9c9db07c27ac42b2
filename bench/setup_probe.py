"""Benchmark set-up in a fresh interpreter: import the racbem CLI and write
the noise-model fixture files for a seed into the given directory.

The harness times this script from process start to exit as `setup_s`.

Usage:
    python3 bench/setup_probe.py <fixture_dir> <seed>
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(fixture_dir: str, seed: int) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import racbem.cli  # noqa: F401  (the import is the set-up being timed)
    from racbem.generator import linear_coupling_map
    from racbem.noise import synth_model

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import METTS_QUBITS, NOISE_RATES, SPECTRAL_QUBITS, noise_fixture

    for q in (SPECTRAL_QUBITS, METTS_QUBITS):
        model = synth_model(linear_coupling_map(q), *NOISE_RATES,
                            np.random.default_rng(seed))
        with open(noise_fixture(fixture_dir, q), "w") as fh:
            fh.write(model.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
