"""Command-line front end: generate instances, fit polynomials, find
phases, run the benchmark tasks, and emit JSON/CSV artifacts.

Every subcommand accepts --config (a JSON file of flag defaults); explicit
flags override the file.  The effective configuration is echoed into every
artifact for provenance.  Exit codes: 0 success, 2 usage or schema error
(also used by argparse itself), 3 file I/O error, 4 module error.  Errors
print one machine-parsable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
import tempfile

import numpy as np

from . import gates as G
from .chebpoly import (
    ChebPoly,
    RemezError,
    cos_sqrt,
    fit_scaled,
    gibbs,
    inverse,
    lorentzian_sqrt,
    odd_gibbs,
    sin_sqrt,
)
from .generator import (
    DEFAULT_GATE_SET,
    GeneratorConfig,
    default_depth,
    generate,
    linear_coupling_map,
    load_coupling_map,
    sv_spread_stats,
)
from .noise import NoiseModel
from .phasefactors import optimize, to_varphi
from . import tasks

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_MODULE = 4

OUT_DIR_ENV = "RACBEM_OUT_DIR"

DEFAULT_SHOTS = 8192
DEFAULT_P_CNOT = 0.5


class SchemaError(ValueError):
    pass


def _out_dir() -> str:
    return os.environ.get(OUT_DIR_ENV, ".")


def _atomic_write(path: str, text: str):
    """Write via a temp file in the same directory, then rename."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-racbem-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _resolve_out(args, default_name: str) -> str:
    if getattr(args, "out", None):
        return args.out
    return os.path.join(_out_dir(), default_name)


def _coupling_for(args, n_total: int):
    name = getattr(args, "coupling", None)
    if name is None:
        return linear_coupling_map(n_total)
    if os.path.exists(name):
        with open(name) as fh:
            return G.CouplingMap.from_json(fh.read())
    return load_coupling_map(name)


def _noise_for(args) -> NoiseModel | None:
    path = getattr(args, "noise_model", None)
    if path is None:
        return None
    with open(path) as fh:
        return NoiseModel.from_json(fh.read())


def _sampling(args) -> tuple[int, float]:
    """(shots, sigma) after defaults: --exact forces (0, 0); sigma
    defaults to 1 when a noise model is supplied, else 0."""
    if getattr(args, "exact", False):
        return 0, 0.0
    shots = args.shots if args.shots is not None else DEFAULT_SHOTS
    if args.sigma is not None:
        sigma = args.sigma
    else:
        sigma = 1.0 if getattr(args, "noise_model", None) else 0.0
    return shots, sigma


def _effective_config(args, keys: tuple[str, ...]) -> dict:
    cfg = {"command": args.command}
    for k in keys:
        v = getattr(args, k, None)
        cfg[k] = v
    return cfg


def _echo(cfg: dict, payload: dict) -> str:
    return json.dumps({"config": cfg, **payload}, indent=2) + "\n"


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


# -- subcommand handlers ------------------------------------------------


def _common_instance_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", default=None,
                   help="JSON file of flag defaults; explicit flags win")
    p.add_argument("--n", type=int, default=None, help="system qubit count")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--p-cnot", dest="p_cnot", type=float, default=None)
    p.add_argument("--depth", default=None,
                   help="layer count, or 'auto' for the depth rule")
    p.add_argument("--coupling", default=None,
                   help="bundled map name (t5, ladder15) or a JSON file path")


def _common_sampling_flags(p: argparse.ArgumentParser):
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--noise-model", dest="noise_model", default=None,
                   help="noise model JSON file")
    p.add_argument("--exact", action="store_true",
                   help="exact mode: shots=0, sigma=0")


def _resolve_depth(args, n: int) -> int:
    if args.depth is None or args.depth == "auto":
        return default_depth(n)
    return int(args.depth)


def _require(args, *names):
    """Options that must be set by flag or config file."""
    missing = [m for m in names if getattr(args, m, None) is None]
    if missing:
        flags = ", ".join("--" + m.replace("_", "-") for m in missing)
        raise SchemaError(f"missing required option(s): {flags}")


def cmd_generate(args) -> int:
    _require(args, "n", "seed")
    seed = args.seed
    n = args.n
    depth = _resolve_depth(args, n)
    p_cnot = args.p_cnot if args.p_cnot is not None else DEFAULT_P_CNOT
    coupling = _coupling_for(args, n + 1)
    cfg = GeneratorConfig(coupling, DEFAULT_GATE_SET, p_cnot, depth, seed)
    circuit = generate(cfg)
    out = _resolve_out(args, f"racbem-n{n}-s{seed}.txt")
    _atomic_write(out, G.circuit_to_text(circuit))
    return EXIT_OK


def cmd_sv_stats(args) -> int:
    _require(args, "n", "seed")
    seed = args.seed
    n = args.n
    depth = _resolve_depth(args, n)
    p_cnot = args.p_cnot if args.p_cnot is not None else DEFAULT_P_CNOT
    coupling = _coupling_for(args, n + 1)
    cfg = GeneratorConfig(coupling, DEFAULT_GATE_SET, p_cnot, depth, seed)
    stats = sv_spread_stats(args.samples, n, cfg)
    echo = _effective_config(args, ("n", "seed", "p_cnot", "samples"))
    echo["depth"] = depth
    out = _resolve_out(args, f"sv-stats-n{n}-s{seed}.json")
    _atomic_write(out, _echo(echo, {
        "samples": stats.samples, "mean": stats.mean, "std": stats.std,
        "min": stats.min, "max": stats.max,
    }))
    return EXIT_OK


TARGETS = ("inverse", "cos-sqrt", "sin-sqrt", "lorentzian-sqrt", "gibbs", "odd-gibbs")


def _build_target(args):
    kind = args.target
    if kind == "inverse":
        if args.kappa is None:
            raise SchemaError("inverse target needs --kappa")
        return inverse(args.kappa)
    if kind == "cos-sqrt":
        if args.t is None or args.eta is None:
            raise SchemaError("cos-sqrt target needs --t and --eta")
        return cos_sqrt(args.t, args.eta)
    if kind == "sin-sqrt":
        if args.t is None or args.eta is None:
            raise SchemaError("sin-sqrt target needs --t and --eta")
        return sin_sqrt(args.t, args.eta)
    if kind == "lorentzian-sqrt":
        if args.eta is None or args.energy is None:
            raise SchemaError("lorentzian-sqrt target needs --eta and --energy")
        return lorentzian_sqrt(args.eta, args.energy)
    if kind == "gibbs":
        if args.beta is None:
            raise SchemaError("gibbs target needs --beta")
        return gibbs(args.beta)
    if kind == "odd-gibbs":
        if args.beta is None:
            raise SchemaError("odd-gibbs target needs --beta")
        return odd_gibbs(args.beta)
    raise SchemaError(f"unknown target {kind!r}")


def cmd_remez(args) -> int:
    _require(args, "target", "degree")
    t = _build_target(args)
    poly, err = fit_scaled(t, args.degree, args.parity)
    echo = _effective_config(
        args, ("target", "degree", "parity", "kappa", "t", "eta", "energy", "beta")
    )
    out = _resolve_out(args, f"remez-{args.target}-d{args.degree}.json")
    _atomic_write(out, _echo(echo, {
        "poly": json.loads(poly.to_json()), "sup_error": err,
    }))
    return EXIT_OK


def cmd_phase_factors(args) -> int:
    _require(args, "poly")
    with open(args.poly) as fh:
        body = json.load(fh)
    poly = ChebPoly.from_json(json.dumps(body.get("poly", body)))
    phases, residual = optimize(poly)
    varphi = to_varphi(phases)
    echo = _effective_config(args, ("poly",))
    out = _resolve_out(args, "phase-factors.json")
    _atomic_write(out, _echo(echo, {
        "phi": list(phases.values),
        "varphi": list(varphi.values),
        "residual": residual,
    }))
    return EXIT_OK


def _emit_reports(args, reports, default_base: str):
    stream = getattr(args, "reports", None) or os.path.join(
        _out_dir(), default_base + ".reports.jsonl"
    )
    lines = "".join(json.dumps(r.to_record()) + "\n" for r in reports)
    _atomic_write(stream, lines)
    if getattr(args, "csv", None):
        tasks.write_csv(list(reports), args.csv)


def _bench_one(payload):
    n, seed, shots, sigma, noise, p_cnot, depth = payload
    return tasks.racbem_benchmark(
        n, seed, shots=shots, noise_model=noise, sigma=sigma,
        p_cnot=p_cnot, depth=depth,
    )


def cmd_racbem_bench(args) -> int:
    _require(args, "n", "seed")
    seed = args.seed
    n = args.n
    shots, sigma = _sampling(args)
    noise = _noise_for(args)
    p_cnot = args.p_cnot if args.p_cnot is not None else DEFAULT_P_CNOT
    depth = _resolve_depth(args, n)
    jobs = args.jobs or os.cpu_count() or 1
    payloads = [
        (n, seed + k, shots, sigma, noise, p_cnot, depth)
        for k in range(args.instances)
    ]
    if jobs > 1 and len(payloads) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as ex:
            reports = list(ex.map(_bench_one, payloads))
    else:
        reports = [_bench_one(p) for p in payloads]
    echo = _effective_config(
        args, ("n", "seed", "instances", "p_cnot", "noise_model")
    )
    echo.update({"shots": shots, "sigma": sigma, "depth": depth})
    out = _resolve_out(args, f"racbem-bench-n{n}-s{seed}.json")
    _atomic_write(out, _echo(echo, {
        "reports": [r.to_record() for r in reports],
    }))
    _emit_reports(args, reports, f"racbem-bench-n{n}-s{seed}")
    return EXIT_OK


def cmd_linpack(args) -> int:
    _require(args, "n", "seed", "kappa", "d")
    seed = args.seed
    shots, sigma = _sampling(args)
    noise = _noise_for(args)
    p_cnot = args.p_cnot if args.p_cnot is not None else DEFAULT_P_CNOT
    depth = _resolve_depth(args, args.n)
    report = tasks.linpack_run(
        args.kappa, args.n, args.d, seed, shots=shots,
        noise_model=noise, sigma=sigma, p_cnot=p_cnot, depth=depth,
    )
    echo = _effective_config(args, ("kappa", "n", "d", "seed", "p_cnot", "noise_model"))
    echo.update({"shots": shots, "sigma": sigma, "depth": depth})
    out = _resolve_out(args, f"linpack-k{args.kappa}-n{args.n}-s{seed}.json")
    _atomic_write(out, _echo(echo, {"report": report.to_record()}))
    _emit_reports(args, [report], f"linpack-k{args.kappa}-n{args.n}-s{seed}")
    return EXIT_OK


def cmd_timeseries(args) -> int:
    _require(args, "n", "seed")
    seed = args.seed
    shots, sigma = _sampling(args)
    noise = _noise_for(args)
    p_cnot = args.p_cnot if args.p_cnot is not None else DEFAULT_P_CNOT
    depth = _resolve_depth(args, args.n)
    ts = args.t_grid or tuple(range(1, 11))
    kw = {}
    if args.lengths_real:
        kw["lengths_real"] = args.lengths_real
    if args.lengths_imag:
        kw["lengths_imag"] = args.lengths_imag
    if args.etas_real:
        kw["etas_real"] = args.etas_real
    if args.etas_imag:
        kw["etas_imag"] = args.etas_imag
    res = tasks.time_series_run(
        args.n, seed, ts=ts, shots=shots, noise_model=noise, sigma=sigma,
        p_cnot=p_cnot, depth=depth, **kw,
    )
    echo = _effective_config(
        args, ("n", "seed", "p_cnot", "noise_model",
               "lengths_real", "lengths_imag", "etas_real", "etas_imag")
    )
    echo.update({"shots": shots, "sigma": sigma, "depth": depth})
    out = _resolve_out(args, f"timeseries-n{args.n}-s{seed}.json")
    _atomic_write(out, _echo(echo, {
        "t": list(res.grid),
        "s": [[v.real, v.imag] for v in res.values],
        "s_exact": [[v.real, v.imag] for v in res.exact],
    }))
    _emit_reports(args, res.reports, f"timeseries-n{args.n}-s{seed}")
    return EXIT_OK


def cmd_spectral(args) -> int:
    _require(args, "n", "seed")
    seed = args.seed
    shots, sigma = _sampling(args)
    noise = _noise_for(args)
    p_cnot = args.p_cnot if args.p_cnot is not None else DEFAULT_P_CNOT
    depth = _resolve_depth(args, args.n)
    if args.points < 2:
        raise SchemaError("need at least 2 grid points")
    energies = tuple(
        args.e_min + (args.e_max - args.e_min) * k / (args.points - 1)
        for k in range(args.points)
    )
    lengths = args.lengths if args.lengths else args.length
    res = tasks.spectral_run(
        args.n, seed, energies=energies, eta=args.eta, lengths=lengths,
        shots=shots, noise_model=noise, sigma=sigma, p_cnot=p_cnot, depth=depth,
    )
    echo = _effective_config(
        args, ("n", "seed", "eta", "e_min", "e_max", "points",
               "length", "lengths", "p_cnot", "noise_model")
    )
    echo.update({"shots": shots, "sigma": sigma, "depth": depth})
    out = _resolve_out(args, f"spectral-n{args.n}-s{seed}.json")
    _atomic_write(out, _echo(echo, {
        "E": list(res.grid),
        "s": [v.real for v in res.values],
        "s_exact": [v.real for v in res.exact],
    }))
    _emit_reports(args, res.reports, f"spectral-n{args.n}-s{seed}")
    return EXIT_OK


def cmd_metts(args) -> int:
    _require(args, "n", "seed", "beta", "steps")
    seed = args.seed
    shots, sigma = _sampling(args)
    noise = _noise_for(args)
    p_cnot = args.p_cnot if args.p_cnot is not None else DEFAULT_P_CNOT
    depth = _resolve_depth(args, args.n)
    trace, report = tasks.metts_run(
        args.beta, args.steps, args.n, seed, shots=shots,
        noise_model=noise, sigma=sigma, d_num=args.d_num, d_den=args.d_den,
        p_cnot=p_cnot, depth=depth,
    )
    echo = _effective_config(
        args, ("beta", "steps", "n", "seed", "d_num", "d_den",
               "p_cnot", "noise_model")
    )
    echo.update({"shots": shots, "sigma": sigma, "depth": depth})
    out = _resolve_out(args, f"metts-b{args.beta}-n{args.n}-s{seed}.json")
    _atomic_write(out, _echo(echo, {
        "estimate": trace.estimate,
        "exact": trace.exact,
        "resamples": trace.resamples,
        "flagged": trace.flagged,
        "states": list(trace.states),
        "energies": list(trace.energies),
        "cma": list(trace.cma),
    }))
    cma_path = args.cma or os.path.join(
        _out_dir(), f"metts-b{args.beta}-n{args.n}-s{seed}.cma.csv"
    )
    tasks.write_cma_csv(trace, cma_path)
    _emit_reports(args, [report], f"metts-b{args.beta}-n{args.n}-s{seed}")
    return EXIT_OK


# -- parser -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="racbem",
        description="random-circuit block-encoding benchmarks",
    )
    p.add_argument("--config", default=None,
                   help="JSON file of flag defaults; explicit flags win")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a random circuit file")
    _common_instance_flags(g)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("sv-stats", help="singular-value spread statistics")
    _common_instance_flags(s)
    s.add_argument("--samples", type=int, default=100)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_sv_stats)

    r = sub.add_parser("remez", help="minimax polynomial fit of a target")
    r.add_argument("--config", default=None)
    r.add_argument("--target", choices=TARGETS, default=None)
    r.add_argument("--degree", type=int, default=None)
    r.add_argument("--parity", choices=("even", "odd", "none"), default="none")
    r.add_argument("--kappa", type=float, default=None)
    r.add_argument("--t", type=float, default=None)
    r.add_argument("--eta", type=float, default=None)
    r.add_argument("--energy", type=float, default=None)
    r.add_argument("--beta", type=float, default=None)
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_remez)

    f = sub.add_parser("phase-factors", help="phases for a stored polynomial")
    f.add_argument("--config", default=None)
    f.add_argument("--poly", default=None, help="polynomial JSON file")
    f.add_argument("--out", default=None)
    f.set_defaults(func=cmd_phase_factors)

    b = sub.add_parser("racbem-bench", help="success probability of A|0^n>")
    _common_instance_flags(b)
    _common_sampling_flags(b)
    b.add_argument("--instances", type=int, default=1)
    b.add_argument("--jobs", type=int, default=None)
    b.add_argument("--out", default=None)
    b.add_argument("--reports", default=None)
    b.add_argument("--csv", default=None)
    b.set_defaults(func=cmd_racbem_bench)

    l = sub.add_parser("linpack", help="matrix-inversion success benchmark")
    _common_instance_flags(l)
    _common_sampling_flags(l)
    l.add_argument("--kappa", type=float, default=None)
    l.add_argument("--d", type=int, default=None)
    l.add_argument("--out", default=None)
    l.add_argument("--reports", default=None)
    l.add_argument("--csv", default=None)
    l.set_defaults(func=cmd_linpack)

    t = sub.add_parser("timeseries", help="Hamiltonian time series")
    _common_instance_flags(t)
    _common_sampling_flags(t)
    t.add_argument("--t-grid", dest="t_grid", type=_float_list, default=None)
    t.add_argument("--lengths-real", dest="lengths_real", type=_int_list, default=None)
    t.add_argument("--lengths-imag", dest="lengths_imag", type=_int_list, default=None)
    t.add_argument("--etas-real", dest="etas_real", type=_float_list, default=None)
    t.add_argument("--etas-imag", dest="etas_imag", type=_float_list, default=None)
    t.add_argument("--out", default=None)
    t.add_argument("--reports", default=None)
    t.add_argument("--csv", default=None)
    t.set_defaults(func=cmd_timeseries)

    e = sub.add_parser("spectral", help="broadened spectral measure")
    _common_instance_flags(e)
    _common_sampling_flags(e)
    e.add_argument("--eta", type=float, default=tasks.DEFAULT_BROADENING)
    e.add_argument("--e-min", dest="e_min", type=float, default=0.0)
    e.add_argument("--e-max", dest="e_max", type=float, default=1.0)
    e.add_argument("--points", type=int, default=11)
    e.add_argument("--length", type=int, default=11)
    e.add_argument("--lengths", type=_int_list, default=None)
    e.add_argument("--out", default=None)
    e.add_argument("--reports", default=None)
    e.add_argument("--csv", default=None)
    e.set_defaults(func=cmd_spectral)

    m = sub.add_parser("metts", help="thermal energy via a typical-state chain")
    _common_instance_flags(m)
    _common_sampling_flags(m)
    m.add_argument("--beta", type=float, default=None)
    m.add_argument("--steps", type=int, default=None)
    m.add_argument("--d-num", dest="d_num", type=int, default=None)
    m.add_argument("--d-den", dest="d_den", type=int, default=None)
    m.add_argument("--out", default=None)
    m.add_argument("--reports", default=None)
    m.add_argument("--cma", default=None)
    m.add_argument("--csv", default=None)
    m.set_defaults(func=cmd_metts)

    return p


def _apply_config_file(parser, args, argv):
    """Apply the --config JSON file over the flag defaults.

    Values for keys the user passed explicitly on the command line are
    left alone; unknown keys are schema errors."""
    if not args.config:
        return args
    with open(args.config) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaError(f"config file is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise SchemaError("config file must hold a JSON object")
    explicit = {a.lstrip("-").replace("-", "_").split("=")[0] for a in argv if a.startswith("--")}
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        # func and command are parser bookkeeping, not flags
        if dest in ("func", "command") or not hasattr(args, dest):
            raise SchemaError(f"unknown config key {key!r}")
        if dest not in explicit:
            setattr(args, dest, value)
    return args


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(parser, args, argv)
        return args.func(args)
    except SchemaError as e:
        print(json.dumps({"error": "schema", "message": str(e)}), file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(json.dumps({"error": "io", "message": str(e)}), file=sys.stderr)
        return EXIT_IO
    except (ValueError, RemezError, np.linalg.LinAlgError) as e:
        print(json.dumps({"error": "module", "message": str(e)}), file=sys.stderr)
        return EXIT_MODULE


if __name__ == "__main__":
    sys.exit(main())
