"""Sweep the noise knob sigma and watch the success-probability error grow.

Runs the basic block-encoding benchmark on a batch of seeded instances
under a synthetic device model, once per sigma value, and prints the
mean absolute deviation |p_measured - p_exact| per sigma.  A clean
simulator shows a monotone trend; a real backend can be compared against
the same curve.

Usage:
    python3 scripts/noise_sweep.py --n 3 --instances 20 --csv sweep.csv
"""

import argparse
import csv
import sys

import numpy as np

from racbem.generator import linear_coupling_map
from racbem.noise import synth_model
from racbem.tasks import DEFAULT_SHOTS, racbem_benchmark


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=3, help="system qubits")
    ap.add_argument("--instances", type=int, default=20)
    ap.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    ap.add_argument("--sigmas", default="0,0.25,0.5,0.75,1.0",
                    help="comma-separated sigma values")
    ap.add_argument("--seed", type=int, default=0, help="noise model seed")
    ap.add_argument("--p1", type=float, default=0.002, help="1q error rate")
    ap.add_argument("--p2", type=float, default=0.02, help="2q error rate")
    ap.add_argument("--pm", type=float, default=0.03, help="readout error rate")
    ap.add_argument("--csv", help="optional output CSV path")
    args = ap.parse_args(argv)

    sigmas = [float(s) for s in args.sigmas.split(",")]
    nm = synth_model(
        linear_coupling_map(args.n + 2), args.p1, args.p2, args.pm,
        np.random.default_rng(args.seed),
    )
    rows = []
    for sigma in sigmas:
        devs = [
            abs(r.p_measured - r.p_exact)
            for r in (
                racbem_benchmark(args.n, k, shots=args.shots,
                                 noise_model=nm, sigma=sigma)
                for k in range(args.instances)
            )
        ]
        rows.append({"sigma": sigma,
                     "mean_abs_dev": float(np.mean(devs)),
                     "max_abs_dev": float(np.max(devs))})
        print(f"sigma {sigma:5.2f}  mean |dp| {rows[-1]['mean_abs_dev']:.4f}"
              f"  max |dp| {rows[-1]['max_abs_dev']:.4f}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
