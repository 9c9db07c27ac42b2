"""Run the thermal-energy Markov chain and dump its cumulative average.

Prints the final estimate against the exact thermal energy and writes the
per-step cumulative moving average to CSV for plotting convergence.

Usage:
    python3 scripts/metts_trace.py --beta 1 --steps 500 --n 2 --seed 15 --cma cma.csv
"""

import argparse
import sys

from racbem.tasks import metts_run, write_cma_csv


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--steps", type=int, default=500)
    ap.add_argument("--n", type=int, default=2, help="system qubits")
    ap.add_argument("--seed", type=int, default=15)
    ap.add_argument("--shots", type=int, default=0, help="0 = exact mode")
    ap.add_argument("--cma", default="metts_cma.csv", help="output CSV path")
    args = ap.parse_args(argv)

    trace, report = metts_run(args.beta, args.steps, args.n, args.seed,
                              shots=args.shots)
    print(f"beta {args.beta}  steps {args.steps}  estimate {trace.estimate:.6f}"
          f"  exact {trace.exact:.6f}  rel err {report.relative_error:.4f}")
    print(f"resamples {trace.resamples}  flagged steps {trace.flagged}")
    with open(args.cma, "w", newline="") as fh:
        write_cma_csv(trace, fh)
    print(f"wrote {args.cma}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
