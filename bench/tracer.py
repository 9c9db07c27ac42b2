"""Span recorder for the traced run: wraps the public functions of every
racbem module from outside the program.

Each layer is one module.  `install` replaces every public module-level
function of a layer, in every loaded racbem namespace that holds the same
object (so `tasks.optimize` is caught as well as
`phasefactors.optimize`), and `uninstall` restores the originals.  A call
records a span only when it crosses into another layer; a call within
the caller's own layer runs unwrapped apart from a call counter.  Spans
stay in memory until the run ends.

Per-gate constructors, `gate_adjoint` and `gate_unitary` are not wrapped:
they run once per gate and the wrapper would cost more than they do.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "tasks", "generator", "chebpoly", "phasefactors", "qsvt",
          "blockenc", "statevector", "noise", "oracle", "gates")

SKIP = {
    "gates": {"u1", "u2", "u3", "x", "h", "t", "sdg", "rz", "cnot",
              "gate_unitary", "gate_adjoint"},
}

# public functions the four workloads called at the commit that added the
# benchmark; one that disappears from its module is reported as missing
EXPECTED = {
    "cli": ("build_parser", "cmd_linpack", "cmd_metts", "cmd_spectral", "main"),
    "tasks": ("canonical_quadratic", "generate_instance", "linpack_run", "measure_success",
              "metts_run", "spectral_run", "write_cma_csv"),
    "generator": ("default_depth", "generate", "generate_block_encoding", "linear_coupling_map"),
    "chebpoly": ("apply_scaling", "compose_fit", "eval_cheb", "fit_on_interval", "fit_scaled",
                 "gibbs", "inverse", "lorentzian_sqrt", "odd_gibbs", "remez"),
    "phasefactors": ("optimize", "to_varphi"),
    "qsvt": ("build", "gate_count_bound"),
    "blockenc": ("extract_block", "phases_for_quadratic", "quadratic_for_condition"),
    "statevector": ("apply", "circuit_unitary", "success_probability_exact"),
    "noise": ("sample_noisy_counts", "scale", "scale_dist"),
    "oracle": ("exact_spectral_measure", "exact_thermal_energy"),
    "gates": ("adjoint", "concat", "from_gates", "gate_count", "shift_qubits"),
}

SIMULATE = ("apply", "success_probability_exact", "sample_counts")
CONVERGED_L = 1e-24  # racbem.phasefactors.CONVERGED_L at the benchmark's first commit
BYTES_PER_AMPLITUDE = 32  # one complex128 read and one written per gate


def _gates_of(c) -> int:
    return sum(1 for _ in c.gates())


def _optimize_attrs(bound, result):
    return {"degree": bound["f"].degree, "residual": float(result[1])}


def _unitary_attrs(bound, result):
    c = bound["c"]
    return {"gates": _gates_of(c), "qubits": c.n_qubits, "columns": 2**c.n_qubits}


def _simulate_attrs(bound, result):
    c = bound["c"]
    return {"gates": _gates_of(c), "qubits": c.n_qubits, "columns": 1}


def _noise_attrs(bound, result):
    return {"gates": _gates_of(bound["c"]), "shots": int(bound["shots"])}


ATTRS = {
    "phasefactors.optimize": _optimize_attrs,
    "statevector.circuit_unitary": _unitary_attrs,
    "noise.sample_noisy_counts": _noise_attrs,
    **{f"statevector.{name}": _simulate_attrs for name in SIMULATE},
}


def racbem_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "racbem" or name.startswith("racbem."))}


def patch_everywhere(replacements: dict) -> list[tuple]:
    """Rebind every racbem module attribute that is one of the originals.

    `replacements` maps id(original) to (original, replacement); returns
    what `restore` needs to undo it."""
    patched = []
    for mod in racbem_modules().values():
        for attr, value in list(vars(mod).items()):
            entry = replacements.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(mod, attr, entry[1])
                patched.append((mod, attr, value))
    return patched


def restore(patched: list[tuple]):
    for mod, attr, value in reversed(patched):
        setattr(mod, attr, value)


class Tracer:
    """Wraps the racbem layers, records spans, and restores the originals."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, run, attrs]
        self.stack: list[tuple[int, str]] = []
        self.calls: Counter = Counter()
        self.run_id = 0
        self.wrapped: list[str] = []
        self.missing: list[str] = []
        self.attr_errors: Counter = Counter()
        self._patched: list[tuple] = []

    def _wrap(self, layer: str, name: str, fn):
        qual = f"{layer}.{name}"
        attrs = ATTRS.get(qual)
        sig = inspect.signature(fn) if attrs else None
        spans, stack, calls = self.spans, self.stack, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qual] += 1
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            span = [qual, layer, 0.0, 0.0, stack[-1][0] if stack else None, self.run_id, None]
            stack.append((len(spans), layer))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if attrs:
                try:
                    span[6] = attrs(sig.bind(*args, **kwargs).arguments, result)
                except (TypeError, KeyError, AttributeError, IndexError):
                    self.attr_errors[qual] += 1
            return result

        return wrapper

    def install(self):
        modules = racbem_modules()
        replacements = {}
        for layer in LAYERS:
            mod = modules.get(f"racbem.{layer}")
            if mod is None:
                self.missing.append(f"{layer} (module)")
                continue
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or name in SKIP.get(layer, ())):
                    continue
                replacements[id(fn)] = (fn, self._wrap(layer, name, fn))
                self.wrapped.append(f"{layer}.{name}")
            self.missing += [f"{layer}.{n}" for n in EXPECTED[layer] if not callable(getattr(mod, n, None))]
        self._patched = patch_everywhere(replacements)

    def uninstall(self):
        restore(self._patched)
        self._patched = []

    def never_called(self) -> list[str]:
        return [q for q in self.wrapped if self.calls[q] == 0]

    def write(self, path: str):
        with open(path, "w") as fh:
            for i, (name, layer, start, end, parent, run, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run, "attrs": attrs}) + "\n")

    def layer_metrics(self, run: int) -> Counter:
        """Per-layer numbers of one traced workload pass; a layer or
        function the pass never entered has no key."""
        ids = [i for i, s in enumerate(self.spans) if s[5] == run]
        child = Counter()
        for i in ids:
            s = self.spans[i]
            if s[4] is not None:
                child[s[4]] += s[3] - s[2]
        m = Counter()
        for i in ids:
            name, layer, start, end, _, _, attrs = self.spans[i]
            dur = end - start
            m[f"{layer}.self_s"] += dur - child[i]
            m[f"{layer}.calls"] += 1
            fn = name.split(".", 1)[1]
            if attrs is None:
                continue
            if name == "phasefactors.optimize":
                m["phasefactors.degree_sum"] += attrs["degree"]
                m["phasefactors.residual_max"] = max(m["phasefactors.residual_max"], attrs["residual"])
                m["phasefactors.unconverged"] += attrs["residual"] > CONVERGED_L
            elif layer == "statevector":
                m["statevector.unitary_s" if fn == "circuit_unitary" else "statevector.simulate_s"] += dur
                m["statevector.gate_apps"] += attrs["gates"]
                m["statevector.bytes_computed"] += (
                    BYTES_PER_AMPLITUDE * 2 ** attrs["qubits"] * attrs["columns"] * attrs["gates"])
            elif name == "noise.sample_noisy_counts":
                shots = attrs["shots"]
                if shots == 1:
                    m["noise.collapse_s"] += dur
                    m["noise.collapse_calls"] += 1
                else:
                    m["noise.sample_s"] += dur
                m["noise.trajectories"] += shots
                m["noise.traj_gate_apps"] += shots * attrs["gates"]
        return m
