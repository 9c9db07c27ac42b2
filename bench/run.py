"""Benchmark of the racbem task pipeline, end to end and layer by layer.

Runs one named workload through the public command line, called
in-process as `racbem.cli.main(argv)`, as a closed loop of sequential
calls, and checks every output against its dense reference (see
workloads.py and noise_ref.py).

    python3 bench/run.py --workload spectral-deep --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --all --seconds 25 --out bench/baseline.json

With --trace 0 it reports the end-to-end metrics: `run_s`, the median
wall time of one pass over the workload; `setup_s`, the median time of a
fresh interpreter that imports `racbem.cli` and writes the noise-model
fixtures (bench/setup_probe.py); and `peak_rss_mb`.  With --trace 1 it
times untraced passes for half the window and traced passes for the
other half, and reports per-layer metrics from the spans (tracer.py).
`--all` runs every workload in both modes, one child process each, and
prints every metric by name with its unit.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  An operation is one CLI
call or one reported point; `failed` counts those that exit nonzero,
emit a non-finite value or a probability outside [0, 1], or fail their
workload's check.  Before timing, each workload makes one untimed,
cut-down call of the same subcommands (the first L-BFGS solve in a
process costs about 0.95 s against 0.05 s afterwards).  Spans, check
failures and artifacts go under .bench_out/ in the checkout.

Seeds: `--seed` picks the instances of the exact workloads and the
synthetic noise model of the noisy ones (seed 0 reproduces the acceptance
tests' inputs).  Development used seeds 0-99; seeds from 10**6 up
(workloads.HELD_OUT_OFFSET) are held out, for checking a claim on inputs
that were not used while it was written.

Metric names, units and directions come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

# one BLAS thread: on a 2-core host it was faster than two (linpack-wide
# 4.3 s against 5.4-6.2 s, spectral-noisy 4.5 s against 6.7 s), and it is
# the same on any host
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 600


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _units(spec: dict, trace: int) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "racbem", "cli.py"))


def _invoke(cli, argv: list[str]) -> int:
    """One CLI call; an escaping exception or argparse exit is a failed call."""
    try:
        return cli.main(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) and e.code else 2
    except Exception:
        traceback.print_exc()
        return -1


def _measure_setup(fixture_dir: str, seed: int, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), fixture_dir, str(seed)],
            timeout=CHILD_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return times


def environment() -> dict:
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs",
                                  "libscipy_openblas*.so"))
    if libs:
        try:
            get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
            get.restype = ctypes.c_int
            threads = get()
        except (OSError, AttributeError):
            threads = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else f"{BLAS_THREADS} (requested)",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


class Runner:
    """One workload at one seed: warm-up, timed passes, checks."""

    def __init__(self, cli, wl, probe, reference):
        self.cli, self.wl, self.probe, self.reference = cli, wl, probe, reference
        self.attempted = 0
        self.failures: list[str] = []
        self.first_values = None
        self.ref_err_max = 0.0
        self.coverage = None
        self.input_record = None  # the sampler call the input check repeats

    def one_pass(self) -> tuple[float, list[int]]:
        rcs = []
        t0 = time.perf_counter()
        for k, call in enumerate(self.wl.calls):
            if self.probe is not None:
                self.probe.call_index = k
            rcs.append(_invoke(self.cli, call.argv))
        return time.perf_counter() - t0, rcs

    def check(self, rcs: list[int]):
        from workloads import Op, read_outputs

        problems, coverage = {}, None
        if self.probe is not None:
            problems, coverage = self.reference.check(self.probe.records)
            self.coverage = coverage
            if not self.probe.records:
                problems[-1] = ["no call of racbem.noise.sample_noisy_counts observed"]
            elif self.input_record is None:
                self.input_record = max(self.probe.records, key=lambda r: r[3])
            self.probe.records.clear()
        ops, values = [], []
        for k, (call, rc) in enumerate(zip(self.wl.calls, rcs)):
            detail = [] if rc == 0 else [f"exit code {rc}"]
            if rc == 0:
                try:
                    records, body = read_outputs(call)
                    ops += self.wl.check_points(records, body, k)
                except (OSError, ValueError, KeyError, TypeError) as e:
                    detail.append(f"unreadable output: {e!r}")
                else:
                    values.append([r["p_measured"] for r in records])
                    self.ref_err_max = max([self.ref_err_max] + [
                        r["relative_error"] for r in records if math.isfinite(r["relative_error"])])
            if self.probe is not None:
                detail += problems.get(k, []) + problems.get(-1, [])
                if coverage != 1.0:
                    detail.append(f"noise-model coverage {coverage} != 1")
            ops.append(Op(f"call{k}", not detail, "; ".join(detail)))
        if self.first_values is None:
            self.first_values = values
        elif values != self.first_values:
            ops.append(Op("repeat", False, "a repeated pass gave different p values"))
        self.attempted += len(ops)
        self.failures += [f"{op.name}: {op.detail}" for op in ops if not op.ok]

    def timed_passes(self, seconds: float, tracer=None) -> list[float]:
        """Passes until the next one would end after `seconds`; at least one."""
        times = []
        start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.run_id = len(times)
            dt, rcs = self.one_pass()
            times.append(dt)
            self.check(rcs)
            if time.perf_counter() + statistics.median(times) > start + seconds:
                return times


def run_workload(args) -> int:
    if not _program_present():
        print(f"racbem sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    import workloads

    seed = args.seed
    tag = f"{args.workload}-s{seed}-t{args.trace}"
    work_dir = os.path.join(OUT_ROOT, tag)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    setup_times = _measure_setup(work_dir, seed, SETUP_REPEATS if args.trace == 0 else 1)

    sys.path.insert(0, SRC)
    import racbem.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"racbem imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import racbem.noise
    import tracer as tr
    from noise_ref import NoisyReference, SamplerProbe

    env = environment()
    wl = workloads.build(args.workload, seed, work_dir)
    probe = SamplerProbe() if wl.noisy else None
    patched = []
    if probe is not None:
        fn = racbem.noise.sample_noisy_counts
        patched = tr.patch_everywhere({id(fn): (fn, probe.wrap(fn))})
    runner = Runner(cli, wl, probe, NoisyReference())
    tracer = None
    try:
        for call in wl.warmup:
            rc = _invoke(cli, call.argv)
            if rc != 0:
                runner.failures.append(f"warm-up: exit code {rc}")
                runner.attempted += 1
        if probe is not None:
            probe.records.clear()
        if args.trace == 0:
            times = runner.timed_passes(args.seconds)
        else:
            times = runner.timed_passes(args.seconds / 2)
            tracer = tr.Tracer()
            tracer.install()
            try:
                traced = runner.timed_passes(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
    finally:
        tr.restore(patched)
    input_note = None
    if runner.input_record is not None:
        import numpy as np

        problem, input_note = runner.reference.input_check(
            runner.input_record, racbem.noise.sample_noisy_counts, np.random.default_rng(seed))
        runner.attempted += 1
        if problem:
            runner.failures.append(problem)

    failed = len(runner.failures)
    for line in runner.failures:
        print(f"FAILED {line[:500]}", file=sys.stderr)
    print(json.dumps({"env": env, "workload": wl.name, "why": wl.why, "seed": seed}))
    if args.trace == 0:
        metrics = {
            "run_s": statistics.median(times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes = [f"run_s: median of {len(times)} passes {[round(t, 3) for t in times]}",
                 f"setup_s: median of {len(setup_times)} fresh interpreters",
                 f"report.ref_err_max (not gated): {runner.ref_err_max:.4g}",
                 f"failed_share: {failed}/{runner.attempted}"]
    else:
        metrics, notes = _trace_metrics(tracer, times, traced, runner, wl, work_dir)
    if runner.coverage is not None:
        notes.append(f"noise-model coverage of the sampled gates: {runner.coverage}")
    if input_note is not None:
        notes.append(input_note)
    units = _units(_spec(), args.trace)
    # a layer or function the workload never enters reads 0
    metrics = {name: metrics.get(name, 0) for name in units}
    print(f"{wl.name} (seed {seed}, trace {args.trace}): {wl.why}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>14.6g} {units[name]}")
    for note in notes:
        print(f"  # {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _trace_metrics(tracer, times, traced, runner, wl, work_dir):
    from tracer import LAYERS

    per_pass = [tracer.layer_metrics(run) for run in range(len(traced))]
    keys = set().union(*per_pass)
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in keys}
    metrics["report.ref_err_max"] = runner.ref_err_max
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(times) - 1.0
    self_sum = sum(metrics.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    tracer.write(os.path.join(work_dir, "spans.jsonl"))
    report = {
        "wrapped": tracer.wrapped,
        "missing": tracer.missing,
        "never_called": tracer.never_called(),
        "attribute_errors": dict(tracer.attr_errors),
    }
    with open(os.path.join(work_dir, "trace_report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    largest = max(LAYERS, key=lambda layer: metrics.get(f"{layer}.self_s", 0.0))
    notes = [
        f"largest self-time layer: {largest} (predicted {wl.largest_layer}) "
        f"{'MATCH' if largest == wl.largest_layer else 'MISMATCH'}",
        f"layer self times sum to {self_sum:.3f} s of traced run_s "
        f"{statistics.median(traced):.3f} s; untraced run_s {statistics.median(times):.3f} s",
        f"trace.overhead_share from {len(traced)} traced and {len(times)} untraced passes"
        f"{'' if min(len(traced), len(times)) >= 3 else ' (unresolved: fewer than 3 each)'}",
        f"wrapped {len(tracer.wrapped)} functions; missing: {tracer.missing or 'none'}; "
        f"never called here: {len(report['never_called'])} (see trace_report.json)",
    ]
    if tracer.attr_errors:
        notes.append(f"span attributes unavailable: {dict(tracer.attr_errors)}")
    return metrics, notes


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    from workloads import NAMES

    results, ok = {}, True
    for name in NAMES:
        results[name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[1:-1]) + "\n")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exit code {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            header = json.loads(lines[0])
            results[name]["why"] = header["why"]
            results[name]["env"] = header["env"]
            results[name][f"trace{trace}"] = result
            ok = ok and result["correct"]
    if args.out:
        # metric units, directions and bounds, as BENCHMARK.json defines them
        spec = _spec()
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"],
                       "workloads": results}, fh, indent=1)
            fh.write("\n")
    print(json.dumps({"all_correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    sys.path.insert(0, BENCH_DIR)
    from workloads import NAMES

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=NAMES)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0, help="length of the timed window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="with --all: write every result to this JSON file")
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args)
    if not args.workload:
        ap.error("need --workload or --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
