"""Stochastic Pauli noise with readout confusion, tunable by one knob.

Each gate kind/operand pair carries a discrete distribution over error
operations (identity or Pauli insertions after the ideal gate); each
measured qubit carries a 2x2 readout confusion matrix.  A parameter
sigma in [0, 1] interpolates between noiseless (0) and the full model
(1) by scaling every non-correct probability.  Shots are independent,
so the counts are one multinomial draw from the exact outcome law.  The
density matrix rho is held as n four-level sites, site q being the pair
(row bit q, column bit q), so a gate and its Pauli channel act as one
4^k x 4^k block on the gate's sites and rho passes once through the
statevector kernel; the readout rows then mix the measured marginal.
Each law is computed once per (circuit, measured, input) per model, and
a run scales its model once, so once per run.  The model also keeps the
fused noisy blocks of each part reference, so the laws of a run share
one fusion of U_A and one of U_A^dag.  Nothing on a circuit refers back
to a model, so a run's scaled model goes when the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .gates import ADJOINT_KINDS, ONE_QUBIT_KINDS, QuantumCircuit, gate_unitary
from .statevector import (
    UNITARY_QUBIT_CAP,
    CountsHistogram,
    StateVector,
    _marginal,
    _run,
    sample_from_probs,
)

PAULI_1Q = ("i", "x", "y", "z")
PAULI_2Q = tuple(a + b for a in PAULI_1Q for b in PAULI_1Q)

DIST_TOL = 1e-12

SCHEMA = 1


def _check_dist(dist: dict[str, float], n_ops: int) -> dict[str, float]:
    labels = PAULI_1Q if n_ops == 1 else PAULI_2Q
    out = {}
    for k, v in dist.items():
        if k not in labels:
            raise ValueError(f"unknown error op {k!r}")
        if v < 0:
            raise ValueError("negative probability")
        out[k] = float(v)
    total = sum(out.values())
    if abs(total - 1.0) > DIST_TOL:
        raise ValueError(f"distribution sums to {total}, not 1")
    correct = out.get("i" * n_ops, 0.0)
    if any(v > correct + DIST_TOL for k, v in out.items() if k != "i" * n_ops):
        raise ValueError("correct-operation entry must be the largest")
    return out


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate error distributions plus per-qubit readout confusion.

    gate_errors keys are (gate kind, operand tuple); readout maps qubit
    index to a 2x2 row-stochastic matrix (row = true bit, column = read
    bit).  Gates or qubits without an entry are noiseless."""

    gate_errors: dict[tuple[str, tuple[int, ...]], dict[str, float]] = field(
        default_factory=dict
    )
    readout: dict[int, tuple[tuple[float, float], tuple[float, float]]] = field(
        default_factory=dict
    )
    _channels: dict = field(init=False, repr=False, compare=False)  # key -> channel superop
    _laws: dict = field(init=False, repr=False, compare=False)  # (circuit, measured, input) -> law
    _blocks: dict = field(init=False, repr=False, compare=False)  # part reference -> fused blocks

    def __post_init__(self):
        checked = {}
        for (kind, qubits), dist in self.gate_errors.items():
            qubits = tuple(int(q) for q in qubits)
            checked[(kind, qubits)] = _check_dist(dist, len(qubits))
        object.__setattr__(self, "gate_errors", checked)
        object.__setattr__(self, "_channels", {
            key: sum(p * _PAULI_SUPEROPS[lab] for lab, p in dist.items())
            for key, dist in checked.items()})
        object.__setattr__(self, "_laws", {})
        object.__setattr__(self, "_blocks", {})
        ro = {}
        for q, rows in self.readout.items():
            rows = tuple(tuple(float(x) for x in r) for r in rows)
            for r in rows:
                if len(r) != 2 or any(x < 0 for x in r) or abs(sum(r) - 1) > DIST_TOL:
                    raise ValueError("readout rows must be length-2 distributions")
            ro[int(q)] = rows
        object.__setattr__(self, "readout", ro)

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": SCHEMA,
                "gate_errors": [
                    {"kind": k, "qubits": list(q), "dist": d}
                    for (k, q), d in sorted(self.gate_errors.items())
                ],
                "readout": {str(q): [list(r) for r in rows] for q, rows in self.readout.items()},
            }
        )

    def _block(self, g) -> np.ndarray:
        """Gate g on rho: its Pauli channel times its superoperator."""
        sup = _superop(gate_unitary(g))
        channel = self._channels.get((g.kind, g.qubits))
        return sup if channel is None else channel @ sup

    @classmethod
    def from_json(cls, text: str) -> "NoiseModel":
        d = json.loads(text)
        if d.get("schema") != SCHEMA:
            raise ValueError(f"unsupported schema {d.get('schema')!r}")
        ge = {
            (e["kind"], tuple(e["qubits"])): e["dist"] for e in d["gate_errors"]
        }
        ro = {int(q): tuple(tuple(r) for r in rows) for q, rows in d["readout"].items()}
        return cls(ge, ro)


def _scaled(p: float, correct: bool, sigma: float) -> float:
    """The sigma rule: a correct entry becomes 1 - sigma (1 - p), any
    other sigma p."""
    return 1.0 - sigma * (1.0 - p) if correct else sigma * p


def scale_dist(dist: dict[str, float], sigma: float, n_ops: int) -> dict[str, float]:
    ident = "i" * n_ops
    out = {k: _scaled(v, k == ident, sigma) for k, v in dist.items()}
    out.setdefault(ident, 1.0 - sigma)
    return out


def scale(m: NoiseModel, sigma: float) -> NoiseModel:
    """Multiply every error probability by sigma (readout rows included)."""
    if not 0.0 <= sigma <= 1.0:
        raise ValueError("sigma must be in [0, 1]")
    ge = {
        key: scale_dist(dist, sigma, len(key[1]))
        for key, dist in m.gate_errors.items()
    }
    ro = {q: tuple(tuple(_scaled(p, read == b, sigma) for read, p in enumerate(row))
                   for b, row in enumerate(rows))
          for q, rows in m.readout.items()}
    return NoiseModel(ge, ro)


def synth_model(
    coupling,
    base_1q_rate: float,
    base_2q_rate: float,
    readout_rate: float,
    rng: np.random.Generator,
) -> NoiseModel:
    """Depolarizing-style model sized from base rates with 20% jitter.

    One-qubit kinds share a per-qubit Pauli distribution; CNOT entries
    exist only on coupling edges; readout confusion is symmetric."""
    for r in (base_1q_rate, base_2q_rate, readout_rate):
        if not 0.0 <= r < 0.5:
            raise ValueError("rates must be in [0, 0.5)")
    ge = {}
    for q in range(coupling.n_qubits):
        e = base_1q_rate * (1.0 + 0.2 * rng.uniform(-1, 1))
        dist = {"i": 1.0 - e, "x": e / 3, "y": e / 3, "z": e / 3}
        for kind in sorted(ONE_QUBIT_KINDS):
            ge[(kind, (q,))] = dict(dist)
    labels2 = PAULI_2Q[1:]
    for c, t in sorted(coupling.edges):
        e = base_2q_rate * (1.0 + 0.2 * rng.uniform(-1, 1))
        dist = {"ii": 1.0 - e}
        dist.update({lab: e / 15 for lab in labels2})
        ge[("cnot", (c, t))] = dist
    ro = {
        q: ((1.0 - readout_rate, readout_rate), (readout_rate, 1.0 - readout_rate))
        for q in range(coupling.n_qubits)
    }
    return NoiseModel(ge, ro)


_PAULI = dict(zip(PAULI_1Q, (np.eye(2), np.array([[0, 1], [1, 0]]),
                            np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))))


def _superop(u: np.ndarray) -> np.ndarray:
    """rho -> u rho u^dagger for a k-qubit u, as a 4^k x 4^k block in site
    order: the outer product of u and conj u with each row bit moved next
    to its column bit."""
    k = len(u).bit_length() - 1
    t = u.reshape((2,) * 2 * k)
    site = [a for q in range(k) for a in (q, q + 2 * k)]
    sup = np.multiply.outer(t, t.conj()).transpose(site + [a + k for a in site])
    return sup.reshape(len(u) ** 2, -1)


# built once, so that a gate's channel is a weighted sum of table entries
_PAULI_SUPEROPS = {lab: _superop(functools.reduce(np.kron, (_PAULI[ch] for ch in lab)))
                   for lab in PAULI_1Q + PAULI_2Q}


def coverage(model: NoiseModel, circuits) -> float:
    """Share of the circuits' gates that have a gate_errors entry, read off
    each distinct part's leaf: kinds as `gate_count` maps them, offset added."""
    covered = total = 0
    for (leaf, offset, dagger), k in Counter(r for c in circuits for r in c.refs()).items():
        keys = [(ADJOINT_KINDS.get(g.kind, g.kind) if dagger else g.kind,
                 tuple(q + offset for q in g.qubits)) for layer in leaf.layers for g in layer]
        covered += k * sum(key in model.gate_errors for key in keys)
        total += k * len(keys)
    return covered / total if total else 0.0


def outcome_distribution(
    c: QuantumCircuit,
    model: NoiseModel,
    measured: list[int],
    input_state: StateVector,
) -> np.ndarray:
    """Exact distribution of the read bitstrings (measured[0] first).

    rho = |psi><psi| is laid out as n four-level sites and passes once
    through `statevector._run`, each gate's block being its Pauli channel
    times its superoperator.  The diagonal (sites at 0 or 3) is the
    outcome law, whose measured marginal the readout rows then mix.
    The law is kept on the model, read-only, and returned again for the
    same (circuit, measured, input)."""
    key = (c, tuple(measured), input_state.amplitudes.tobytes())
    law = model._laws.get(key)
    if law is not None:
        return law
    n = c.n_qubits
    if n > UNITARY_QUBIT_CAP:
        raise ValueError(f"{n} qubits exceeds the density-matrix cap {UNITARY_QUBIT_CAP}")
    psi = input_state.amplitudes.reshape((2,) * n)
    interleave = [a for q in range(n) for a in (q, q + n)]
    rho = np.multiply.outer(psi, psi.conj()).transpose(interleave).reshape(-1)
    rho = _run(c, rho, model._block, model._blocks)
    probs = np.clip(rho.reshape((4,) * n)[(slice(None, None, 3),) * n].real, 0.0, None)
    marg = _marginal(probs, measured).reshape((2,) * len(measured))
    for pos, q in enumerate(measured):
        rows = model.readout.get(q)
        if rows is not None:
            marg = np.moveaxis(np.tensordot(marg, np.array(rows), axes=([pos], [0])), -1, pos)
    law = marg.reshape(-1)
    law.setflags(write=False)
    model._laws[key] = law
    return law


def sample_noisy_counts(
    c: QuantumCircuit,
    model: NoiseModel,
    shots: int,
    measured: list[int],
    rng: np.random.Generator,
    input_state: StateVector | None = None,
) -> CountsHistogram:
    """Counts of the noisy circuit, in bitstring order: one multinomial
    draw of all shots from the exact outcome distribution, which is the
    law of independent trajectories that draw a Pauli error after each
    gate and flip each read bit per its confusion row."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if input_state is None:
        input_state = StateVector.zero(c.n_qubits)
    probs = outcome_distribution(c, model, measured, input_state)
    return sample_from_probs(probs, shots, rng)
