"""Command-line front end: generate instances, fit polynomials, find
phases, run the benchmark tasks, and emit JSON/CSV artifacts.

The subcommands are declared once, in the COMMANDS table of (handler,
help, flags); the flags come from shared instance, sampling and report
groups.  --config (a JSON file of flag defaults) goes before or after the
subcommand; explicit flags override the file.  The five task commands
share one preamble (`_task_kwargs`) and one writer (`_write_task`).  The
instance flags are resolved in one place (`_generator_config`), and the
sampling settings by `tasks.sampling`, the rule the tasks themselves
apply.  Every JSON artifact echoes the command's row of the flag table:
each input flag with the value the run used, which a handler writes back
where it resolved one (depth, shots, sigma, the metts degrees, the
spectral lengths).  Exit codes: 0 success, 2 usage or schema error (also
argparse's, and a malformed input file's, see `_read`), 3 file I/O error,
4 module error.  Errors print one machine-parsable JSON line on stderr.
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


def _atomic_write(path: str, content):
    """Write via a temp file in the same directory, then rename.  content
    is the text, or a function that writes it to the open file."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-racbem-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            if callable(content):
                content(fh)
            else:
                fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _resolve_out(args, default_name: str) -> str:
    if getattr(args, "out", None):
        return args.out
    return os.path.join(_out_dir(), default_name)


def _read(path: str, from_json):
    """from_json of the file's text; a missing key or a wrong shape is a schema error."""
    with open(path) as fh:
        text = fh.read()
    try:
        return from_json(text)
    except (KeyError, TypeError, AttributeError) as e:
        raise SchemaError(f"{path}: missing key or wrong shape ({type(e).__name__}: {e})")


def _coupling_for(args, n_total: int):
    name = args.coupling
    if name is None:
        return linear_coupling_map(n_total)
    if os.path.exists(name):
        return _read(name, G.CouplingMap.from_json)
    return load_coupling_map(name)


def _noise_for(args) -> NoiseModel | None:
    return None if args.noise_model is None else _read(args.noise_model, NoiseModel.from_json)


def _poly_from_json(text: str) -> ChebPoly:  # a remez artifact, or the polynomial alone
    body = json.loads(text)
    return ChebPoly.from_json(json.dumps(body.get("poly", body)))


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


# flags the echo leaves out: the output paths, and --exact, which the
# echo states as shots 0
NOT_ECHOED = ("--exact", "--out", "--reports", "--csv", "--cma")


def _effective_config(args) -> dict:
    """The command and each of its input flags, in the order of its
    COMMANDS row, with the value the run used."""
    flags = (flag for flag, _ in COMMANDS[args.command][2] if flag not in NOT_ECHOED)
    return {"command": args.command, **{_dest(f): getattr(args, _dest(f)) for f in flags}}


def _echo(cfg: dict, payload: dict) -> str:
    return json.dumps({"config": cfg, **payload}, indent=2) + "\n"


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _depth(text: str) -> int | str:
    return text if text == "auto" else int(text)


def _require(args, *names):
    """Options that must be set by flag or config file."""
    missing = [m for m in names if getattr(args, m, None) is None]
    if missing:
        flags = ", ".join("--" + m.replace("_", "-") for m in missing)
        raise SchemaError(f"missing required option(s): {flags}")


def _generator_config(args) -> GeneratorConfig:
    """The instance flags resolved; the depth, given or chosen by the depth
    rule ('auto' or unset), is written back for the echo."""
    _require(args, "n", "seed")
    args.depth = default_depth(args.n) if args.depth in (None, "auto") else args.depth
    coupling = _coupling_for(args, args.n + 1)
    return GeneratorConfig(coupling, args.p_cnot, args.depth, args.seed)


def _task_kwargs(args, *required) -> dict:
    """The preamble every task shares: check the required options, then
    resolve the instance flags, noise model and sampling settings into the
    task keyword arguments.  --exact is shots 0 and an unset --shots is
    DEFAULT_SHOTS; the shots and sigma the run applies are written back
    for the echo."""
    _require(args, "n", "seed", *required)
    cfg = _generator_config(args)
    noise_model = _noise_for(args)
    shots = 0 if args.exact else tasks.DEFAULT_SHOTS if args.shots is None else args.shots
    args.shots, args.sigma = tasks.sampling(shots, noise_model, args.sigma)
    return {"shots": args.shots, "sigma": args.sigma, "noise_model": noise_model,
            "p_cnot": cfg.p_cnot, "depth": cfg.depth, "coupling": cfg.coupling}


def _write_task(args, base: str, body: dict, reports):
    """Write the artifact (config echo plus body), the JSONL report
    stream, and the CSV when --csv is given; file names derive from base."""
    _atomic_write(_resolve_out(args, base + ".json"), _echo(_effective_config(args), body))
    stream = args.reports or os.path.join(_out_dir(), base + ".reports.jsonl")
    _atomic_write(stream, "".join(json.dumps(r.to_record()) + "\n" for r in reports))
    if args.csv:
        _atomic_write(args.csv, functools.partial(tasks.write_csv, list(reports)))


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
    out = _resolve_out(args, f"sv-stats-n{args.n}-s{args.seed}.json")
    _atomic_write(out, _echo(_effective_config(args), {
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
    out = _resolve_out(args, f"remez-{args.target}-d{args.degree}.json")
    _atomic_write(out, _echo(_effective_config(args), {
        "poly": json.loads(poly.to_json()), "sup_error": err,
    }))
    return EXIT_OK


def cmd_phase_factors(args) -> int:
    _require(args, "poly")
    poly = _read(args.poly, _poly_from_json)
    phases, residual = optimize(poly)
    varphi = to_varphi(phases)
    out = _resolve_out(args, "phase-factors.json")
    _atomic_write(out, _echo(_effective_config(args), {
        "phi": list(phases.values),
        "varphi": list(varphi.values),
        "residual": residual,
    }))
    return EXIT_OK


def cmd_racbem_bench(args) -> int:
    kw = _task_kwargs(args)
    if args.instances < 1:
        raise ValueError("instances must be >= 1")
    reports = [tasks.racbem_benchmark(args.n, args.seed + k, **kw) for k in range(args.instances)]
    _write_task(args, f"racbem-bench-n{args.n}-s{args.seed}",
                {"reports": [r.to_record() for r in reports]}, reports)
    return EXIT_OK


def cmd_linpack(args) -> int:
    kw = _task_kwargs(args, "kappa", "d")
    report = tasks.linpack_run(args.kappa, args.n, args.d, args.seed, **kw)
    _write_task(args, f"linpack-k{args.kappa}-n{args.n}-s{args.seed}",
                {"report": report.to_record()}, [report])
    return EXIT_OK


def cmd_timeseries(args) -> int:
    kw = _task_kwargs(args)
    res = tasks.time_series_run(args.n, args.seed, args.t_grid, args.lengths_real,
                                args.lengths_imag, args.etas_real, args.etas_imag, **kw)
    _write_task(args, f"timeseries-n{args.n}-s{args.seed}", {
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
    if len(args.lengths) == 1:  # one length serves every point; echo what ran
        args.lengths *= args.points
    res = tasks.spectral_run(args.n, args.seed, energies=energies, eta=args.eta,
                             lengths=args.lengths, **kw)
    _write_task(args, f"spectral-n{args.n}-s{args.seed}", {
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
    _write_task(args, base, {
        "estimate": trace.estimate,
        "exact": trace.exact,
        "resamples": trace.resamples,
        "flagged": trace.flagged,
        "states": list(trace.states),
        "energies": list(trace.energies),
        "cma": list(trace.cma),
    }, [report])
    _atomic_write(args.cma or os.path.join(_out_dir(), base + ".cma.csv"),
                  functools.partial(tasks.write_cma_csv, trace))
    return EXIT_OK


# -- parser -------------------------------------------------------------

CONFIG_HELP = "JSON file of flag defaults; explicit flags win"

INT = {"type": int}
FLOAT = {"type": float}

INSTANCE_FLAGS = (
    ("--n", {"type": int, "help": "system qubit count"}),
    ("--seed", INT),
    ("--p-cnot", {"type": float, "default": 0.5}),
    ("--depth", {"type": _depth, "help": "layer count, or 'auto' for the depth rule"}),
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
                       ("--t-grid", {"type": _float_list, "default": tasks.TS_GRID}),
                       ("--lengths-real", {"type": _int_list, "default": tasks.TS_LENGTHS_REAL}),
                       ("--lengths-imag", {"type": _int_list, "default": tasks.TS_LENGTHS_IMAG}),
                       ("--etas-real", {"type": _float_list, "default": tasks.TS_ETAS_REAL}),
                       ("--etas-imag", {"type": _float_list, "default": tasks.TS_ETAS_IMAG}),
                   ) + REPORT_FLAGS),
    "spectral": (cmd_spectral, "broadened spectral measure",
                 INSTANCE_FLAGS + SAMPLING_FLAGS + (
                     ("--eta", {"type": float, "default": tasks.DEFAULT_BROADENING}),
                     ("--e-min", {"type": float, "default": 0.0}),
                     ("--e-max", {"type": float, "default": 1.0}),
                     ("--points", {"type": int, "default": 11}),
                     ("--lengths", {"type": _int_list, "default": (11,),
                                    "help": "phase length per point, or one for all"}),
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
    flags = {_dest(flag): kw for flag, kw in COMMANDS[args.command][2]}
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
