"""Dense statevector simulation, and the one circuit kernel.

States are complex vectors of length 2**n, qubit 0 the most significant
bit of the index.  The kernel is two functions on n sites of dimension
d: 2 for complex states, 4 for the density matrices of `noise`, whose
sites hold real Pauli coefficients (I, X, Y, Z) and whose blocks are
real, merged blocks included.  `_fuse` makes a part's blocks in one pass
over its gates: a gate whose sites were all last touched by one block
folds back into it, and any other gate starts a block that merges the
open blocks (those no later block touches) on its sites, while the
merged sites are two sites or a contiguous run of at most
BLOCK_DIM_CAP = 16 amplitudes: four sites of a state, two of rho.
`_apply` applies blocks.  `_run` applies a circuit's ideal blocks, part
by part.  A part is a (leaf, offset, dagger) reference, such as the U_A
that a QSVT circuit applies d times.  A leaf is fused once and keeps its
ideal blocks; a reference takes them moved up by its offset and, for
dagger, conjugate-transposed in reverse order.  `noise` fuses and keeps
rho's blocks itself.  Each block on sites lo..lo+k-1 is one `matmul` on
a (d**lo, d**k, rest) view of a state, the identity, a block-encoding's
kept columns or rho, except where a measured rule picks one product
with the block's axis moved to the front: at 32 or more rows of d**lo,
on a complex array when rest is the shorter side, on a real one when
rest is 1.  A non-adjacent pair (the t5 map) is one `tensordot`.

Sampled counts stay one vector, `CountsHistogram.draws`, in the same
bitstring order as the outcome laws, from the draw to every reader;
only `CountsHistogram.counts` writes outcomes as bitstrings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .gates import QuantumCircuit, gate_unitary

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
    state, two of rho.  An owner refused is tried again once another has
    merged, since the grown span may make it contiguous (a non-adjacent
    pair of the t5 map).  Open blocks share no site and commute forward to
    the gate, so the merged block is they and the gate in turn on the
    identity of their dtype (real on rho), with sites relabelled by rank."""
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
        span, olds, todo = set(qs), [], sorted(owners - {None})
        while todo:  # the refused owners again, until none merges
            refused = []
            for i in todo:
                ps = blocks[i][1]
                s = span.union(ps)
                if all(last[p] == i for p in ps) and (
                    len(s) == 2 or max(s) - min(s) < len(s) and d ** len(s) <= BLOCK_DIM_CAP
                ):
                    span = s
                    olds.append(blocks[i])
                    blocks[i] = None
                else:
                    refused.append(i)
            todo = refused if len(refused) < len(todo) else []
        if olds:
            span = tuple(sorted(span))
            moved = [(v, tuple(map(span.index, ps))) for v, ps in olds + [(u, qs)]]
            eye = np.eye(d ** len(span), dtype=np.result_type(*(v for v, _ in moved)))
            u, qs = _apply(moved, eye, d), span
        for q in qs:
            last[q] = len(blocks)
        blocks.append((u, qs))
    return [b for b in blocks if b is not None]


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


def _run(c: QuantumCircuit, arr: np.ndarray) -> np.ndarray:
    """The circuit's ideal blocks, part by part, on arr: (2**n,) or (2**n, cols)."""
    return _apply([b for ref in c.refs() for b in _ideal(*ref)], arr, 2)


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
        if len(v) >= 32 and (v.shape[2] == 1 if arr.dtype.kind == "f" else v.shape[2] < len(v)):
            # measured on one BLAS thread: a batch of 32 or more small
            # complex products, or of real matrix-vector products, costs
            # more than one product with the block's axis moved to the front
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

