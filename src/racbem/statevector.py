"""Dense ideal statevector simulation.

States are complex vectors of length 2**n with qubit 0 as the most
significant bit of the state index.  The one kernel, `_run`, folds each
run of one-qubit gates into the next two-qubit gate on its qubit and
applies each 2x2 or 4x4 block as one `matmul` on the amplitudes viewed
as (2**q, 2 or 4, rest), to one state (`apply`), the identity
(`circuit_unitary`) or the columns a block-encoding keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import QuantumCircuit, gate_unitary

UNITARY_QUBIT_CAP = 12

NORM_TOL = 1e-10
_I2 = np.eye(2)


@dataclass
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray
    unnormalized: bool = False

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (2**self.n_qubits,):
            raise ValueError("amplitude vector has wrong length")
        if not self.unnormalized:
            nrm = np.linalg.norm(self.amplitudes)
            if abs(nrm - 1.0) > NORM_TOL:
                raise ValueError(f"state norm {nrm} not within {NORM_TOL} of 1")

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        return cls.basis(n_qubits, 0)

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "StateVector":
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(n_qubits, amps)


def _apply_local(u: np.ndarray, arr: np.ndarray, axes) -> np.ndarray:
    """Contract a 2^k x 2^k operator against k axes of arr.

    arr has shape (2,)*N + rest; u's row and column indices are the k
    axes' bits with axes[0] the most significant (for a gate, its
    qubits; for a superoperator, row then column qubits of rho)."""
    k = len(axes)
    out = np.tensordot(u.reshape((2,) * (2 * k)), arr, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(out, list(range(k)), list(axes))


def _fused(c: QuantumCircuit):
    """Yield the circuit as (u, qubits) blocks, two-qubit ones in ascending
    qubit order: each run of one-qubit gates is multiplied into the next
    two-qubit gate on its qubit, and runs open at the end stay 2x2."""
    mats = {g: gate_unitary(g) for g in set(c.gates())}  # QSVT repeats U_A's gates
    pending: dict[int, np.ndarray] = {}
    for g in c.gates():
        u = mats[g]
        if len(g.qubits) == 1:
            q = g.qubits[0]
            pending[q] = u @ pending[q] if q in pending else u
            continue
        a, b = g.qubits
        pa, pb = pending.pop(a, _I2), pending.pop(b, _I2)
        u = u @ (pa[:, None, :, None] * pb[None, :, None, :]).reshape(4, 4)
        if a > b:  # swap the operand order so the block reads (b, a)
            u = u.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
            a, b = b, a
        yield u, (a, b)
    yield from ((u, (q,)) for q, u in pending.items())


def _run(c: QuantumCircuit, arr: np.ndarray) -> np.ndarray:
    """U_c applied to the state arr, of shape (2**n,), or to each column
    of arr, of shape (2**n, cols)."""
    shape = arr.shape
    for u, qs in _fused(c):
        if qs[-1] - qs[0] <= 1:
            arr = np.matmul(u, arr.reshape(2 ** qs[0], len(u), -1))
        else:  # non-adjacent pair
            arr = _apply_local(u, arr.reshape((2,) * c.n_qubits + (-1,)), qs)
    return arr.reshape(shape)


def apply(c: QuantumCircuit, s: StateVector) -> StateVector:
    """Return U_c |s>."""
    if c.n_qubits != s.n_qubits:
        raise ValueError("circuit/state qubit-count mismatch")
    return StateVector(s.n_qubits, _run(c, s.amplitudes), s.unnormalized)


def circuit_unitary(c: QuantumCircuit, cap: int = UNITARY_QUBIT_CAP) -> np.ndarray:
    """Dense 2^q x 2^q unitary of the circuit (column j = U|j>)."""
    q = c.n_qubits
    if q > cap:
        raise ValueError(f"{q} qubits exceeds unitary cap {cap}")
    return _run(c, np.eye(2**q, dtype=complex))


def success_probability_exact(
    c: QuantumCircuit, m_ancilla: int, input_state: StateVector
) -> float:
    """Probability of reading |0^m> on the m lowest-indexed (ancilla) qubits."""
    out = apply(c, input_state)
    keep = 2 ** (c.n_qubits - m_ancilla)
    return float(np.sum(np.abs(out.amplitudes[:keep]) ** 2))


@dataclass
class CountsHistogram:
    """Measurement counts keyed by bitstring (qubit 0 written first)."""

    counts: dict[str, int]
    shots: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts do not sum to shots")


def marginal_probabilities(s: StateVector, measured: list[int]) -> np.ndarray:
    """Exact outcome distribution on the measured qubits, in bitstring order."""
    return _marginal(np.abs(s.amplitudes.reshape((2,) * s.n_qubits)) ** 2, measured)


def _marginal(probs: np.ndarray, measured: list[int]) -> np.ndarray:
    """Sum a (2,)*n outcome distribution over the unmeasured qubits; the
    result is flat, with measured[0] as the most significant bit."""
    if not measured:
        raise ValueError("empty measured qubit list")
    drop = tuple(q for q in range(probs.ndim) if q not in measured)
    marg = probs.sum(axis=drop) if drop else probs
    # marg's axes follow ascending qubit order; put them in measured order
    return np.transpose(marg, np.argsort(np.argsort(measured))).reshape(-1)


def sample_from_probs(
    probs: np.ndarray, n_bits: int, shots: int, rng: np.random.Generator
) -> CountsHistogram:
    draws = rng.multinomial(shots, probs / probs.sum())
    counts = {
        format(i, f"0{n_bits}b"): int(k) for i, k in enumerate(draws) if k > 0
    }
    return CountsHistogram(counts, shots)


def sample_counts(
    c: QuantumCircuit,
    shots: int,
    measured: list[int],
    rng: np.random.Generator,
    input_state: StateVector | None = None,
) -> CountsHistogram:
    """Sample measurement outcomes from the exact Born distribution."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if input_state is None:
        input_state = StateVector.zero(c.n_qubits)
    out = apply(c, input_state)
    probs = marginal_probabilities(out, measured)
    return sample_from_probs(probs, len(measured), shots, rng)
