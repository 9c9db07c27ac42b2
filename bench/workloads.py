"""The four benchmark workloads: the CLI calls each one makes and the
checks its outputs must pass.

Every workload is a closed loop of sequential `racbem` CLI calls in one
process.  The harness seed picks the instances of the exact workloads and
the synthetic noise model of the noisy ones; seed 0 reproduces the inputs
of the acceptance tests (tests/test_acceptance.py).  The checks restate
published contracts rather than thresholds fitted to the outputs:

- spectral-deep: each point within c09's published per-point error column;
- linpack-wide: c07's relative-error bound and success-probability floor;
- noisy workloads: full noise-model coverage, and every sampled count
  inside a binomial band around the exact noisy probability of its call
  (see noise_ref.py).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

# c09's published per-point error column for the 11-point grid E = 0, 0.1, ..., 1
SPECTRAL_TABLE_ERR = (3.20242e-2, 5.59268e-2, 1.23926e-1, 1.32550e-1, 1.36737e-1,
                      1.71503e-1, 1.36727e-1, 1.32529e-1, 1.23922e-1, 5.59258e-2,
                      3.20242e-2)
SPECTRAL_DEEP_LENGTHS = "21,27,33,37,41,43,41,39,35,27,19"

# the (kappa, d) schedule of scripts/kappa_sweep.py
LINPACK_PAIRS = ((2.0, 4), (5.0, 6), (10.0, 12), (20.0, 18))
LINPACK_SEEDS_PER_PAIR = 3

# The noisy workloads pin the acceptance tests' instances (c09's seed 13,
# c10's seed 15) and take the harness seed into the noise model, and so
# into every draw, instead: their cost follows the instance (a MeTTS chain
# its post-selection rate, 5.6-8.1 s for 200 steps across seeds 15-24;
# the noisy spectral pass its gate and CNOT counts, 5% and 17% spread at
# n = 3), which would spread run_s across seeds beyond the bound
SPECTRAL_SEED = 13
METTS_SEED = 15

# synth_model(linear_coupling_map(q), 0.001, 0.01, 0.02, rng(seed)), one
# fixture per register size; seed 0 is c09's noisy deep case
NOISE_RATES = (0.001, 0.01, 0.02)
SPECTRAL_QUBITS = 5  # n = 3 system qubits + 2 ancillas
METTS_QUBITS = 4  # n = 2 system qubits + 2 ancillas

# development used harness seeds 0-99; seeds from this one up are held out,
# for checking a claim on inputs that were not used while it was written
HELD_OUT_OFFSET = 1_000_000


def noise_fixture(fixture_dir: str, n_qubits: int) -> str:
    return os.path.join(fixture_dir, f"noise-q{n_qubits}.json")


@dataclass
class Call:
    """One CLI invocation and where it writes its artifacts."""

    argv: list[str]
    out: str
    reports: str


@dataclass
class Op:
    """One checked operation: a CLI call or a reported point."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class Workload:
    name: str
    why: str
    calls: list[Call]
    warmup: list[Call]
    noisy: bool
    largest_layer: str  # predicted largest self-time layer in the traced run
    check_points: Callable = field(repr=False)  # (records, out_json, call index) -> ops


def _call(work_dir: str, tag: str, argv: list[str], extra: tuple[str, ...] = ()) -> Call:
    out = os.path.join(work_dir, f"{tag}.json")
    reports = os.path.join(work_dir, f"{tag}.reports.jsonl")
    return Call(argv + ["--out", out, "--reports", reports, *extra], out, reports)


def _finite_probability(rec: dict) -> tuple[bool, str]:
    for key in ("p_measured", "p_exact"):
        v = rec[key]
        if not math.isfinite(v) or not 0.0 <= v <= 1.0:
            return False, f"{key}={v!r} outside [0, 1]"
    if not math.isfinite(rec["relative_error"]):
        return False, f"relative_error={rec['relative_error']!r}"
    return True, ""


def _check_spectral_deep(records, body, index):
    ops = []
    for k, (rec, s, s_ref) in enumerate(zip(records, body["s"], body["s_exact"])):
        ok, detail = _finite_probability(rec)
        dev = abs(s - s_ref)
        if ok and not dev <= SPECTRAL_TABLE_ERR[k]:
            ok, detail = False, f"|s - s_exact| = {dev:.3e} > {SPECTRAL_TABLE_ERR[k]:.3e}"
        ops.append(Op(f"E={rec['params']['E']:.1f}", ok, detail))
    if len(records) != len(SPECTRAL_TABLE_ERR):
        ops.append(Op("points", False, f"{len(records)} points, expected 11"))
    return ops


def _check_linpack(records, body, index):
    ops = []
    for rec in records:
        ok, detail = _finite_probability(rec)
        bound = rec["params"]["relative_error_bound"]
        if ok and not rec["relative_error"] <= bound:
            ok, detail = False, f"relative error {rec['relative_error']:.3e} > bound {bound:.3e}"
        if ok and not rec["params"]["p_exact_above_floor"]:
            ok, detail = False, "p_exact below the (1/kappa - eps)^2 floor"
        ops.append(Op(f"call{index}.point", ok, detail))
    return ops


def _check_noisy_points(records, body, index):
    # the sampled probabilities are checked call by call against the
    # exact noisy law (noise_ref.py); a point only has to be well formed
    ops = []
    for k, rec in enumerate(records):
        if rec["task"] == "metts":
            vals = (rec["p_measured"], rec["p_exact"], rec["relative_error"])
            ok = all(math.isfinite(v) for v in vals)
            detail = "" if ok else f"non-finite energy {vals!r}"
        else:
            ok, detail = _finite_probability(rec)
        ops.append(Op(f"call{index}.point{k}", ok, detail))
    return ops


def build(name: str, seed: int, work_dir: str) -> Workload:
    """The workload `name` at harness seed `seed`, writing its artifacts to
    and reading its fixtures from `work_dir`."""
    if name == "spectral-deep":
        s = SPECTRAL_SEED + seed
        base = ["spectral", "--n", "3", "--seed", str(s), "--exact"]
        return Workload(
            name,
            "phase-solver bound: 11 exact spectral points on c09's deep grid; "
            "one L-BFGS solve (E=0.7, d=38) stalls and takes most of the run",
            [_call(work_dir, "deep", base + ["--lengths", SPECTRAL_DEEP_LENGTHS])],
            [_call(work_dir, "warmup", base + ["--points", "2", "--lengths", "11,11"])],
            noisy=False,
            largest_layer="phasefactors",
            check_points=_check_spectral_deep,
        )
    if name == "linpack-wide":
        calls = []
        for kappa, d in LINPACK_PAIRS:
            for k in range(LINPACK_SEEDS_PER_PAIR):
                s = LINPACK_SEEDS_PER_PAIR * seed + k
                calls.append(_call(work_dir, f"k{kappa:g}-d{d}-s{s}", [
                    "linpack", "--n", "8", "--seed", str(s), "--kappa", f"{kappa:g}",
                    "--d", str(d), "--exact",
                ]))
        return Workload(
            name,
            "dense-simulation bound: 12 exact 9-qubit inversions over the "
            "published (kappa, d) pairs; the 512x512 reference unitary dominates",
            calls,
            [calls[0]],
            noisy=False,
            largest_layer="statevector",
            check_points=_check_linpack,
        )
    if name == "spectral-noisy":
        s = SPECTRAL_SEED
        nm = noise_fixture(work_dir, SPECTRAL_QUBITS)

        def base(shots):
            return ["spectral", "--n", "3", "--seed", str(s), "--shots", shots,
                    "--sigma", "1", "--noise-model", nm]

        return Workload(
            name,
            "noise cost per shot: 3 noisy points x 2048 trajectories through "
            "~2,200 gates",
            [_call(work_dir, "noisy", base("2048") + [
                "--points", "3", "--e-min", "0.2", "--e-max", "0.8",
                "--lengths", "33,43,35"])],
            # the same shot count as the timed call, so its array sizes are warm too
            [_call(work_dir, "warmup", base("2048") + ["--points", "2", "--lengths", "11,11"])],
            noisy=True,
            largest_layer="noise",
            check_points=_check_noisy_points,
        )
    if name == "metts-noisy":
        nm = noise_fixture(work_dir, METTS_QUBITS)

        def chain(tag, steps):
            return _call(work_dir, tag, [
                "metts", "--n", "2", "--seed", str(METTS_SEED), "--beta", "1",
                "--steps", steps, "--shots", "64", "--sigma", "1", "--noise-model", nm,
            ], ("--cma", os.path.join(work_dir, f"{tag}.cma.csv")))

        return Workload(
            name,
            "noise cost per call: ~760 short noisy calls per 200 chain steps, "
            "about half one-shot collapses; opposite use of the noise layer "
            "to spectral-noisy",
            [chain("metts", "200")],
            [chain("warmup", "5")],
            noisy=True,
            largest_layer="noise",
            check_points=_check_noisy_points,
        )
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("spectral-deep", "linpack-wide", "spectral-noisy", "metts-noisy")


def read_outputs(call: Call) -> tuple[list[dict], dict]:
    with open(call.reports) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    with open(call.out) as fh:
        body = json.load(fh)
    return records, body
