"""Matrix-inversion benchmark across condition numbers and degrees.

For each (kappa, degree) pair, runs a batch of seeded instances in exact
mode and reports the worst relative error against its analytic bound
2*kappa*eps / (1 - kappa*eps), plus the gate count against its budget,
the batch's wall time in seconds (fit, phase solve, simulation and
reference together) and its worst phase residual.

Usage:
    python3 scripts/kappa_sweep.py --n 2 --instances 25 --csv kappa.csv
    python3 scripts/kappa_sweep.py --n 2 --instances 1 --pairs 100:120,200:240,400:480,1000:1200
"""

import argparse
import csv
import sys
import time

from racbem.tasks import linpack_run

# degree schedule matching the published phase lengths per kappa
DEFAULT_PAIRS = ((2.0, 4), (5.0, 6), (10.0, 12), (20.0, 18))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2, help="system qubits")
    ap.add_argument("--instances", type=int, default=25)
    ap.add_argument("--shots", type=int, default=0, help="0 = exact mode")
    ap.add_argument("--pairs", default=None,
                    help="kappa:d pairs, e.g. '2:4,5:6' (default schedule otherwise)")
    ap.add_argument("--csv", help="optional output CSV path")
    args = ap.parse_args(argv)

    if args.pairs:
        pairs = [tuple(map(float, p.split(":"))) for p in args.pairs.split(",")]
        pairs = [(k, int(d)) for k, d in pairs]
    else:
        pairs = DEFAULT_PAIRS

    rows = []
    for kappa, d in pairs:
        worst_rel, worst_ratio, worst_gates, worst_res = 0.0, 0.0, 0, 0.0
        start = time.perf_counter()
        for seed in range(args.instances):
            r = linpack_run(kappa, args.n, d, seed, shots=args.shots)
            bound = r.params["relative_error_bound"]
            worst_rel = max(worst_rel, r.relative_error)
            worst_ratio = max(worst_ratio, r.relative_error / bound)
            worst_gates = max(worst_gates, r.gate_counts["total"])
            worst_res = max(worst_res, r.params["residual"])
        seconds = time.perf_counter() - start
        rows.append({"kappa": kappa, "d": d, "worst_rel_error": worst_rel,
                     "worst_error_over_bound": worst_ratio,
                     "worst_gates": worst_gates, "seconds": seconds,
                     "worst_residual": worst_res})
        print(f"kappa {kappa:5.1f}  d {d:3d}  worst rel err {worst_rel:.3e}"
              f"  err/bound {worst_ratio:.3f}  gates {worst_gates}"
              f"  {seconds:.2f} s  worst residual {worst_res:.1e}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
