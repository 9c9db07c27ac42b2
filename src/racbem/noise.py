"""Stochastic Pauli noise with readout confusion, tunable by one knob.

Each gate kind/operand pair carries a discrete distribution over error
operations (identity or Pauli insertions after the ideal gate); each
measured qubit carries a 2x2 readout confusion matrix.  A parameter
sigma in [0, 1] interpolates between noiseless (0) and the full model
(1) by scaling every non-correct probability.  Shots are independent,
so the counts are one multinomial draw from the exact outcome law.  The
density matrix rho is held as its real Pauli coefficients c_P = Tr(P rho)
on n four-level sites, site q holding qubit q's factor of P (I, X, Y or
Z).  A gate acts on them as its real Pauli-transfer block (Chow et al.,
PRL 109, 060501 (2012)), and its Pauli channel as one scaling lambda_P
per Pauli, so the two are one real 4^k x 4^k block on the gate's sites,
and rho passes once through the statevector kernel (`_fuse`, `_apply`).
The diagonal of rho is read off the I and Z coefficients; the readout
rows then mix the measured marginal.  The transfer blocks of the
angle-free kinds are built once, at import.  Each law is computed once
per (circuit, measured, input) per model, and a run scales its model
once, so once per run.  The model also fuses and keeps the noisy blocks
of each part reference (`NoiseModel._fused`), so the laws of a run share
one fusion of U_A and one of U_A^dag.  Nothing on a circuit refers back
to a model, so a run's scaled model goes when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .gates import (
    ADJOINT_KINDS,
    FIXED_UNITARIES,
    ONE_QUBIT_KINDS,
    QuantumCircuit,
    gate_unitary,
    placed_layers,
)
from .statevector import (
    UNITARY_QUBIT_CAP,
    CountsHistogram,
    StateVector,
    _apply,
    _fuse,
    _marginal,
    sample_from_probs,
)

PAULI_1Q = ("i", "x", "y", "z")
PAULI_2Q = tuple(a + b for a in PAULI_1Q for b in PAULI_1Q)

DIST_TOL = 1e-12

SCHEMA = 1


def _labels(n_ops: int) -> tuple[str, ...]:
    return PAULI_1Q if n_ops == 1 else PAULI_2Q


def _check_dist(dist: dict[str, float], n_ops: int) -> dict[str, float]:
    labels = _labels(n_ops)
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
    _channels: dict = field(init=False, repr=False, compare=False)  # key -> channel eigenvalues
    _laws: dict = field(init=False, repr=False, compare=False)  # (circuit, measured, input) -> law
    _blocks: dict = field(init=False, repr=False, compare=False)  # part reference -> fused blocks

    def __post_init__(self):
        checked = {}
        for (kind, qubits), dist in self.gate_errors.items():
            qubits = tuple(int(q) for q in qubits)
            checked[(kind, qubits)] = _check_dist(dist, len(qubits))
        object.__setattr__(self, "gate_errors", checked)
        # a Pauli channel scales each Pauli P by lambda_P = sum_Q p_Q (+-1 as
        # P and Q commute or not)
        object.__setattr__(self, "_channels", {
            key: _SIGNS[len(key[1])] @ [dist.get(lab, 0.0) for lab in _labels(len(key[1]))]
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
        """Gate g on rho's Pauli coefficients: its transfer block, each row
        P scaled by its channel's lambda_P."""
        block = FIXED_TRANSFERS.get(g.kind)
        if block is None:
            block = _transfer(gate_unitary(g))
        channel = self._channels.get((g.kind, g.qubits))
        return block if channel is None else channel[:, None] * block

    def _fused(self, c: QuantumCircuit) -> list:
        """c's blocks on rho: each part reference's, fused once per model from its placed gates."""
        out: list = []
        for ref in c.refs():
            if ref not in self._blocks:
                self._blocks[ref] = _fuse(placed_layers(*ref), 4, self._block)
            out += self._blocks[ref]
        return out

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


# I, X, Y, Z, in the order of PAULI_1Q
_PAULIS = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])])

# rho's sites hold Pauli coefficients: site q's entry (row bit r, column
# bit c) goes to c_P = sum P[c, r] rho[r, c], and back on the diagonal as
# rho[b, b] = (c_I + (-1)^b c_Z) / 2
_TO_PAULI = _PAULIS.transpose(0, 2, 1).reshape(4, 4)
_FROM_IZ = np.array([[1.0, 1.0], [1.0, -1.0]]) / 2

# u's Pauli-transfer entry (P, Q) = Tr(P u Q u^dag) / 2 is linear in
# u (x) conj u: the sum over a, b, c, d of P[a, b] Q[c, d] u[b, c] conj u[a, d] / 2
_ONE_QUBIT_TRANSFER = np.einsum("pab,qcd->pqbcad", _PAULIS, _PAULIS).reshape(16, 16) / 2

# +1 where two one-qubit Paulis commute, -1 where they anticommute
_SIGNS_1Q = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]])
_SIGNS = {1: _SIGNS_1Q, 2: np.kron(_SIGNS_1Q, _SIGNS_1Q)}


def _transfer(u: np.ndarray) -> np.ndarray:
    """rho -> u rho u^dagger for a k-qubit u on rho's Pauli coefficients:
    the real 4^k x 4^k block whose entry (P, Q) is Tr(P u Q u^dag) / 2^k."""
    if len(u) == 2:
        return (_ONE_QUBIT_TRANSFER @ np.multiply.outer(u, u.conj()).reshape(-1)).real.reshape(4, 4)
    p = np.array([np.kron(a, b) for a in _PAULIS for b in _PAULIS])  # in PAULI_2Q order
    return np.einsum("pab,bc,qcd,ad->pq", p, u, p, u.conj(), optimize=True).real / len(u)


def _read_only(block: np.ndarray) -> np.ndarray:
    block.setflags(write=False)  # shared by every gate of its kind
    return block


# the transfer blocks of the kinds without angles, built once
FIXED_TRANSFERS = {kind: _read_only(_transfer(u)) for kind, u in FIXED_UNITARIES.items()}


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

    rho = |psi><psi| is laid out as n (row bit, column bit) sites, turned
    into its real Pauli coefficients by one 4 x 4 block per site, and
    passes once through the model's fused blocks (`NoiseModel._fused`),
    each gate's block being its transfer block scaled by its channel.
    The diagonal, (c_I + c_Z) / 2 and (c_I - c_Z) / 2 per site from the
    sites at 0 or 3, is the outcome law, whose measured marginal the
    readout rows then mix.
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
    coeffs = _apply([(_TO_PAULI, (q,)) for q in range(n)], rho, 4).real
    coeffs = _apply(model._fused(c), coeffs, 4)
    iz = coeffs.reshape((4,) * n)[(slice(None, None, 3),) * n].reshape(-1)
    probs = np.clip(_apply([(_FROM_IZ, (q,)) for q in range(n)], iz, 2), 0.0, None)
    marg = _marginal(probs.reshape((2,) * n), measured).reshape((2,) * len(measured))
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
