"""Dense statevector simulation, and the one circuit kernel.

States are complex vectors of length 2**n, qubit 0 the most significant
bit of the index.  The kernel, `_run`, sees an array as n sites of
dimension d (2 for states, 4 for the density matrices of `noise`).  It
fuses a circuit part by part, in one pass over a part's gates: a gate
whose sites were all last touched by one block folds back into it, and
any other gate starts a block that merges the open blocks (those no later
block touches) on its sites, while the merged sites are two sites or a
contiguous run of at most BLOCK_DIM_CAP = 16 amplitudes: four sites of a
state, two of rho.  A part is a (leaf, offset, dagger) reference, such
as the U_A that a QSVT circuit applies d times.  A leaf is fused once
and keeps its ideal blocks; a reference takes them moved up by its
offset and, for dagger, conjugate-transposed in reverse order.  On rho,
whose noise channels are keyed by absolute qubits, each distinct
reference is fused once per noise model from its placed gates.  Each
block on sites lo..lo+k-1 is one `matmul` on a (d**lo, d**k, rest) view
of a state, the identity, a block-encoding's kept columns or rho; when
rest is the shorter side, one product with the block's axis moved to the
front.  A non-adjacent pair (the t5 map) is one `tensordot`.

Sampled counts stay one vector, `CountsHistogram.draws`, in the same
bitstring order as the outcome laws, from the draw to every reader;
only `CountsHistogram.counts` writes outcomes as bitstrings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .gates import QuantumCircuit, gate_unitary, placed_layers

UNITARY_QUBIT_CAP = 12

NORM_TOL = 1e-10

# largest contiguous fused block: four sites of a state, two of rho
BLOCK_DIM_CAP = 16


@dataclass
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (2**self.n_qubits,):
            raise ValueError("amplitude vector has wrong length")
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


def _fuse(layers, d: int, mat) -> list:
    """The (u, sites) blocks of mat(gate) on d-level sites, in circuit
    order, from one pass over the layers' gates.  A gate whose sites were
    all last touched by one block folds back into it, open or not: no
    later block touches those sites.  Any other gate starts a block that
    merges the open blocks (those no later block touches) that last
    touched its sites, while the merged sites are two sites or a
    contiguous run of at most BLOCK_DIM_CAP amplitudes: four sites of a
    state, two of rho.  Open blocks share no site and commute forward to
    the gate, so the merged block is they and the gate in turn on the
    identity, with sites relabelled by rank."""
    blocks: list = []  # merged-away blocks become None
    last: dict[int, int] = {}  # site -> index of the block that last touched it
    for g in itertools.chain.from_iterable(layers):
        u, qs = mat(g), g.qubits
        if len(qs) == 2 and qs[0] > qs[1]:  # swap the operand order so the block reads (b, a)
            u = u.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
            qs = qs[::-1]
        owners = {last.get(q) for q in qs}
        if len(owners) == 1 and None not in owners:
            i = owners.pop()
            v, ps = blocks[i]
            blocks[i] = (u @ v if ps == qs else _apply([(u, tuple(map(ps.index, qs)))], v, d)), ps
            continue
        span, olds = set(qs), []
        for i in sorted(owners - {None}):
            ps = blocks[i][1]
            s = span.union(ps)
            if all(last[p] == i for p in ps) and (
                len(s) == 2 or max(s) - min(s) < len(s) and d ** len(s) <= BLOCK_DIM_CAP
            ):
                span = s
                olds.append(blocks[i])
                blocks[i] = None
        if olds:
            span = tuple(sorted(span))
            moved = [(v, tuple(map(span.index, ps))) for v, ps in olds + [(u, qs)]]
            u, qs = _apply(moved, np.eye(d ** len(span), dtype=complex), d), span
        for q in qs:
            last[q] = len(blocks)
        blocks.append((u, qs))
    return [b for b in blocks if b is not None]


def _fused(c: QuantumCircuit, d: int, mat, kept) -> list:
    """c's blocks: its parts' blocks in turn.  kept maps a part reference
    to its blocks of mat, fused once from the part's placed gates; None
    stands for the ideal blocks (d = 2, mat = gate_unitary) of `_ideal`."""
    out: list = []
    for ref in c.refs():
        if kept is not None and ref not in kept:
            kept[ref] = _fuse(placed_layers(*ref), d, mat)
        out += _ideal(*ref) if kept is None else kept[ref]
    return out


def _ideal(leaf: QuantumCircuit, offset: int, dagger: bool) -> list:
    """The ideal blocks of a part: leaf's, fused once, moved up offset
    sites and, for dagger, conjugate-transposed in reverse order.  They
    are kept on the leaf by placement, each derived once."""
    kept = leaf.__dict__.setdefault("_blocks", {})
    if (0, False) not in kept:
        kept[0, False] = _fuse(leaf.layers, 2, gate_unitary)
    if (offset, dagger) not in kept:
        blocks = kept[0, False]
        if dagger:
            blocks = [(u.conj().T, qs) for u, qs in reversed(blocks)]
        kept[offset, dagger] = [(u, tuple(q + offset for q in qs)) for u, qs in blocks]
    return kept[offset, dagger]


def _run(c: QuantumCircuit, arr: np.ndarray, mat=gate_unitary, kept=None) -> np.ndarray:
    """The circuit, with mat(g) as gate g's block, applied to arr of shape
    (d**n,) or (d**n, cols): d = 2 for states, 4 for rho in site order.
    kept holds the fused blocks of mat, as in `_fused`."""
    d = 2 if len(arr) == 2**c.n_qubits else 4
    return _apply(_fused(c, d, mat, kept), arr, d)


def _apply(blocks, arr: np.ndarray, d: int) -> np.ndarray:
    """The (u, sites) blocks in turn on arr, whose rows are d-level sites."""
    shape = arr.shape
    for u, qs in blocks:
        if qs[-1] - qs[0] >= len(qs):  # non-adjacent pair
            a, b = qs
            v = arr.reshape(d**a, d, d ** (b - a - 1), d, -1)
            arr = np.moveaxis(np.tensordot(u.reshape((d,) * 4), v, ([2, 3], [1, 3])), [0, 1], [1, 3])
            continue
        k = len(u)
        v = arr.reshape(d ** qs[0], k, -1)
        if v.shape[2] < len(v):
            # a batch of many tiny products costs more than one product
            # with the block's axis moved to the front
            arr = u @ v.transpose(1, 0, 2).reshape(k, -1)
            arr = arr.reshape(k, len(v), -1).transpose(1, 0, 2)
        else:
            arr = np.matmul(u, v)
    return arr.reshape(shape)


def apply(c: QuantumCircuit, s: StateVector) -> StateVector:
    """Return U_c |s>."""
    if c.n_qubits != s.n_qubits:
        raise ValueError("circuit/state qubit-count mismatch")
    return StateVector(s.n_qubits, _run(c, s.amplitudes))


def circuit_unitary(c: QuantumCircuit) -> np.ndarray:
    """Dense 2^q x 2^q unitary of the circuit (column j = U|j>)."""
    q = c.n_qubits
    if q > UNITARY_QUBIT_CAP:
        raise ValueError(f"{q} qubits exceeds unitary cap {UNITARY_QUBIT_CAP}")
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
    """Measurement counts as one int vector: draws[i] is how often outcome
    i was read, in bitstring order (the first measured qubit the most
    significant bit, as in `marginal_probabilities`)."""

    draws: np.ndarray

    @property
    def shots(self) -> int:
        return int(self.draws.sum())

    @property
    def counts(self) -> dict[str, int]:
        """The outcomes read at least once, keyed by bitstring."""
        n = len(self.draws).bit_length() - 1
        return {format(i, f"0{n}b"): int(k) for i, k in enumerate(self.draws) if k}


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


def sample_from_probs(probs: np.ndarray, shots: int, rng: np.random.Generator) -> CountsHistogram:
    """Counts of `shots` independent reads of the outcome law probs."""
    return CountsHistogram(rng.multinomial(shots, probs / probs.sum()))

