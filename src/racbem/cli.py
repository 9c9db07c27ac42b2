"""Command-line front end: generate instances, fit polynomials, find
phases, run the benchmark tasks, and emit JSON/CSV artifacts.

The subcommands are declared once, in the COMMANDS table of (handler,
help, flags); the flags come from shared instance, sampling and report
groups.  --config (a JSON file of flag defaults) goes before or after the
subcommand; explicit flags override the file.  The five task commands
share one preamble (`_task_kwargs`) and one writer (`_write_task`), and
the effective configuration is echoed into every artifact for
provenance.  Exit codes: 0 success, 2 usage or schema error (also used
by argparse itself), 3 file I/O error, 4 module error.  Errors print one
machine-parsable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import functools
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
    GeneratorConfig,
    default_depth,
    generate_block_encoding,
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
    """(shots, sigma) after defaults: --exact or --shots 0 forces (0, 0),
    an exact run being noiseless; sigma defaults to 1 when a noise model
    is supplied, else 0."""
    if getattr(args, "exact", False) or args.shots == 0:
        return 0, 0.0
    shots = args.shots if args.shots is not None else tasks.DEFAULT_SHOTS
    if args.sigma is not None:
        sigma = args.sigma
    else:
        sigma = 1.0 if getattr(args, "noise_model", None) else 0.0
    return shots, sigma


def _effective_config(args, keys: tuple[str, ...]) -> dict:
    return {"command": args.command, **{k: getattr(args, k, None) for k in keys}}


def _echo(cfg: dict, payload: dict) -> str:
    return json.dumps({"config": cfg, **payload}, indent=2) + "\n"


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


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


def _generator_config(args) -> GeneratorConfig:
    _require(args, "n", "seed")
    depth = _resolve_depth(args, args.n)
    coupling = _coupling_for(args, args.n + 1)
    return GeneratorConfig(coupling, args.p_cnot, depth, args.seed)


def _task_kwargs(args, *required) -> dict:
    """The preamble every task shares: check the required options, then
    resolve sampling mode, noise model, depth and coupling map into the
    task keyword arguments."""
    _require(args, "n", "seed", *required)
    shots, sigma = _sampling(args)
    return {
        "shots": shots, "sigma": sigma, "noise_model": _noise_for(args),
        "p_cnot": args.p_cnot, "depth": _resolve_depth(args, args.n),
        "coupling": _coupling_for(args, args.n + 1),
    }


def _write_task(args, kw: dict, base: str, keys: tuple[str, ...], body: dict, reports):
    """Write the artifact (config echo plus body), the JSONL report
    stream, and the CSV when --csv is given; file names derive from base."""
    echo = _effective_config(args, keys)
    echo.update({"shots": kw["shots"], "sigma": kw["sigma"], "depth": kw["depth"],
                 "coupling": args.coupling})
    _atomic_write(_resolve_out(args, base + ".json"), _echo(echo, body))
    stream = args.reports or os.path.join(_out_dir(), base + ".reports.jsonl")
    _atomic_write(stream, "".join(json.dumps(r.to_record()) + "\n" for r in reports))
    if args.csv:
        tasks.write_csv(list(reports), args.csv)


# -- subcommand handlers ------------------------------------------------


def cmd_generate(args) -> int:
    # viewed as U_A, so a map of the wrong size fails as in sv-stats and the tasks
    circuit = generate_block_encoding(_generator_config(args), args.n).circuit
    out = _resolve_out(args, f"racbem-n{args.n}-s{args.seed}.txt")
    _atomic_write(out, G.circuit_to_text(circuit))
    return EXIT_OK


def cmd_sv_stats(args) -> int:
    cfg = _generator_config(args)
    stats = sv_spread_stats(args.samples, args.n, cfg)
    echo = _effective_config(args, ("n", "seed", "p_cnot", "samples"))
    echo["depth"] = cfg.depth
    out = _resolve_out(args, f"sv-stats-n{args.n}-s{args.seed}.json")
    _atomic_write(out, _echo(echo, {
        "samples": stats.samples, "mean": stats.mean, "std": stats.std,
        "min": stats.min, "max": stats.max,
    }))
    return EXIT_OK


# remez target name -> (constructor, the flags it takes in order)
TARGETS = {
    "inverse": (inverse, ("kappa",)),
    "cos-sqrt": (cos_sqrt, ("t", "eta")),
    "sin-sqrt": (sin_sqrt, ("t", "eta")),
    "lorentzian-sqrt": (lorentzian_sqrt, ("eta", "energy")),
    "gibbs": (gibbs, ("beta",)),
    "odd-gibbs": (odd_gibbs, ("beta",)),
}


def cmd_remez(args) -> int:
    _require(args, "target", "degree")
    if args.target not in TARGETS:
        raise SchemaError(f"unknown target {args.target!r}")
    make, needs = TARGETS[args.target]
    if any(getattr(args, k) is None for k in needs):
        flags = " and ".join("--" + k for k in needs)
        raise SchemaError(f"{args.target} target needs {flags}")
    target = make(*(getattr(args, k) for k in needs))
    poly, err = fit_scaled(target, args.degree, args.parity)
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


def cmd_racbem_bench(args) -> int:
    kw = _task_kwargs(args)
    reports = [tasks.racbem_benchmark(args.n, args.seed + k, **kw) for k in range(args.instances)]
    _write_task(args, kw, f"racbem-bench-n{args.n}-s{args.seed}",
                ("n", "seed", "instances", "p_cnot", "noise_model"),
                {"reports": [r.to_record() for r in reports]}, reports)
    return EXIT_OK


def cmd_linpack(args) -> int:
    kw = _task_kwargs(args, "kappa", "d")
    report = tasks.linpack_run(args.kappa, args.n, args.d, args.seed, **kw)
    _write_task(args, kw, f"linpack-k{args.kappa}-n{args.n}-s{args.seed}",
                ("kappa", "n", "d", "seed", "p_cnot", "noise_model"),
                {"report": report.to_record()}, [report])
    return EXIT_OK


# timeseries grid flags, in time_series_run's order -> the default each replaces
SERIES_GRIDS = {
    "t_grid": tasks.TS_GRID, "lengths_real": tasks.TS_LENGTHS_REAL,
    "lengths_imag": tasks.TS_LENGTHS_IMAG, "etas_real": tasks.TS_ETAS_REAL,
    "etas_imag": tasks.TS_ETAS_IMAG,
}


def cmd_timeseries(args) -> int:
    kw = _task_kwargs(args)
    # echo the grid and lists the run used, also where the defaults ran
    for k, default in SERIES_GRIDS.items():
        setattr(args, k, getattr(args, k) or default)
    res = tasks.time_series_run(args.n, args.seed, *(getattr(args, k) for k in SERIES_GRIDS), **kw)
    _write_task(args, kw, f"timeseries-n{args.n}-s{args.seed}",
                ("n", "seed", "p_cnot", "noise_model", *SERIES_GRIDS), {
                    "t": list(res.grid),
                    "s": [[v.real, v.imag] for v in res.values],
                    "s_exact": [[v.real, v.imag] for v in res.exact],
                }, res.reports)
    return EXIT_OK


def cmd_spectral(args) -> int:
    kw = _task_kwargs(args)
    if args.points < 2:
        raise SchemaError("need at least 2 grid points")
    energies = tuple(
        args.e_min + (args.e_max - args.e_min) * k / (args.points - 1)
        for k in range(args.points)
    )
    res = tasks.spectral_run(
        args.n, args.seed, energies=energies, eta=args.eta,
        lengths=args.lengths or args.length, **kw,
    )
    _write_task(args, kw, f"spectral-n{args.n}-s{args.seed}",
                ("n", "seed", "eta", "e_min", "e_max", "points",
                 "length", "lengths", "p_cnot", "noise_model"), {
                    "E": list(res.grid),
                    "s": [v.real for v in res.values],
                    "s_exact": [v.real for v in res.exact],
                }, res.reports)
    return EXIT_OK


def cmd_metts(args) -> int:
    kw = _task_kwargs(args, "beta", "steps")
    trace, report = tasks.metts_run(
        args.beta, args.steps, args.n, args.seed,
        d_num=args.d_num, d_den=args.d_den, **kw,
    )
    # echo the degrees the run used, also when the beta rule chose them
    args.d_num, args.d_den = report.params["d_num"], report.params["d_den"]
    base = f"metts-b{args.beta}-n{args.n}-s{args.seed}"
    _write_task(args, kw, base,
                ("beta", "steps", "n", "seed", "d_num", "d_den", "p_cnot", "noise_model"), {
                    "estimate": trace.estimate,
                    "exact": trace.exact,
                    "resamples": trace.resamples,
                    "flagged": trace.flagged,
                    "states": list(trace.states),
                    "energies": list(trace.energies),
                    "cma": list(trace.cma),
                }, [report])
    tasks.write_cma_csv(trace, args.cma or os.path.join(_out_dir(), base + ".cma.csv"))
    return EXIT_OK


# -- parser -------------------------------------------------------------

CONFIG_HELP = "JSON file of flag defaults; explicit flags win"

INT = {"type": int}
FLOAT = {"type": float}

INSTANCE_FLAGS = (
    ("--n", {"type": int, "help": "system qubit count"}),
    ("--seed", INT),
    ("--p-cnot", {"type": float, "default": 0.5}),
    ("--depth", {"help": "layer count, or 'auto' for the depth rule"}),
    ("--coupling", {"help": "bundled map name (t5, ladder15) or a JSON file path"}),
)

SAMPLING_FLAGS = (
    ("--shots", INT),
    ("--sigma", FLOAT),
    ("--noise-model", {"help": "noise model JSON file"}),
    ("--exact", {"action": "store_true", "help": "exact mode: shots=0, sigma=0"}),
)

OUT, REPORTS, CSV = ("--out", {}), ("--reports", {}), ("--csv", {})

REPORT_FLAGS = (OUT, REPORTS, CSV)

# subcommand -> (handler, help, flags after --config in --help order)
COMMANDS = {
    "generate": (cmd_generate, "write a random circuit file", INSTANCE_FLAGS + (OUT,)),
    "sv-stats": (cmd_sv_stats, "singular-value spread statistics",
                 INSTANCE_FLAGS + (("--samples", {"type": int, "default": 100}), OUT)),
    "remez": (cmd_remez, "minimax polynomial fit of a target", (
        ("--target", {"choices": tuple(TARGETS)}),
        ("--degree", INT),
        ("--parity", {"choices": ("even", "odd", "none"), "default": "none"}),
        ("--kappa", FLOAT),
        ("--t", FLOAT),
        ("--eta", FLOAT),
        ("--energy", FLOAT),
        ("--beta", FLOAT),
        OUT,
    )),
    "phase-factors": (cmd_phase_factors, "phases for a stored polynomial",
                      (("--poly", {"help": "polynomial JSON file"}), OUT)),
    "racbem-bench": (cmd_racbem_bench, "success probability of A|0^n>",
                     INSTANCE_FLAGS + SAMPLING_FLAGS + (
                         ("--instances", {"type": int, "default": 1}),
                     ) + REPORT_FLAGS),
    "linpack": (cmd_linpack, "matrix-inversion success benchmark",
                INSTANCE_FLAGS + SAMPLING_FLAGS + (("--kappa", FLOAT), ("--d", INT)) + REPORT_FLAGS),
    "timeseries": (cmd_timeseries, "Hamiltonian time series",
                   INSTANCE_FLAGS + SAMPLING_FLAGS + (
                       ("--t-grid", {"type": _float_list}),
                       ("--lengths-real", {"type": _int_list}),
                       ("--lengths-imag", {"type": _int_list}),
                       ("--etas-real", {"type": _float_list}),
                       ("--etas-imag", {"type": _float_list}),
                   ) + REPORT_FLAGS),
    "spectral": (cmd_spectral, "broadened spectral measure",
                 INSTANCE_FLAGS + SAMPLING_FLAGS + (
                     ("--eta", {"type": float, "default": tasks.DEFAULT_BROADENING}),
                     ("--e-min", {"type": float, "default": 0.0}),
                     ("--e-max", {"type": float, "default": 1.0}),
                     ("--points", {"type": int, "default": 11}),
                     ("--length", {"type": int, "default": 11}),
                     ("--lengths", {"type": _int_list}),
                 ) + REPORT_FLAGS),
    "metts": (cmd_metts, "thermal energy via a typical-state chain",
              INSTANCE_FLAGS + SAMPLING_FLAGS + (
                  ("--beta", FLOAT),
                  ("--steps", INT),
                  ("--d-num", INT),
                  ("--d-den", INT),
                  OUT, REPORTS, ("--cma", {}), CSV,
              )),
}


def build_parser() -> argparse.ArgumentParser:
    # no abbreviated flags: a flag counts as explicit, and wins over the
    # config file, when argv spells it out
    p = argparse.ArgumentParser(
        prog="racbem",
        description="random-circuit block-encoding benchmarks",
        allow_abbrev=False,
    )
    p.add_argument("--config", default=None, help=CONFIG_HELP)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in COMMANDS.items():
        s = sub.add_parser(name, help=help_text, allow_abbrev=False)
        # SUPPRESS keeps a top-level --config when the subcommand has none
        s.add_argument("--config", default=argparse.SUPPRESS, help=CONFIG_HELP)
        for flag, kw in flags:
            s.add_argument(flag, **kw)
        s.set_defaults(func=handler)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser as it was, so one serves every call
    return build_parser()


def _config_value(key: str, value, kw: dict):
    """A config value parsed as its flag parses the command line: lists
    join with commas, then the flag's type and choices apply."""
    if kw.get("action") == "store_true":
        if not isinstance(value, bool):
            raise SchemaError(f"config key {key!r} must be true or false")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float, list)):
        raise SchemaError(f"config key {key!r} must be a string, a number or a list")
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    try:
        parsed = kw.get("type", str)(text)
    except ValueError:
        raise SchemaError(f"config key {key!r}: invalid value {value!r}")
    if "choices" in kw and parsed not in kw["choices"]:
        raise SchemaError(f"config key {key!r}: {parsed!r} is not one of {list(kw['choices'])}")
    return parsed


def _apply_config_file(args, argv):
    """Apply the --config JSON file over the flag defaults.

    Values for keys the user passed explicitly on the command line are
    left alone; unknown keys and values the flag cannot parse are schema
    errors."""
    if not args.config:
        return args
    with open(args.config) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaError(f"config file is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise SchemaError("config file must hold a JSON object")
    flags = {flag[2:].replace("-", "_"): kw for flag, kw in COMMANDS[args.command][2]}
    explicit = {a.lstrip("-").replace("-", "_").split("=")[0] for a in argv if a.startswith("--")}
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest not in flags:
            raise SchemaError(f"unknown config key {key!r}")
        value = _config_value(key, value, flags[dest])
        if dest not in explicit:
            setattr(args, dest, value)
    return args


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    try:
        args = _apply_config_file(args, argv)
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
