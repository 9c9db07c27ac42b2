"""Block-encodings and Hermitian random-circuit block-encoded matrices.

A circuit U on m + n_sys qubits block-encodes the matrix
A = (<0^m| x I) U (|0^m> x I), the top-left 2^n_sys x 2^n_sys block of
the circuit unitary under the qubit-0-is-MSB ordering.  From a 1-ancilla
block-encoding of A this module builds 2-ancilla block-encodings of the
Hermitian matrix h(A) = a2 * A^dag A + a0 * I, where the quadratic
h(x) = a2 x^2 + a0 is selected by two rotation phases
(`phases_for_quadratic`).  That circuit is the degree-2 case of the
alternating-phase circuit, and `alternate` is the one assembler for both
it and `qsvt.build`.  The quadratic as a polynomial, and the choice of
it for a condition number, live in `chebpoly`.  An assembled circuit
copies no gate of U_A: its parts refer to `ua.circuit` at qubit offset
1, with dagger for U_A^dag, and each phase group is three parts: one
shared open-controlled NOT, a one-gate rz, and that NOT again.
`inverse_weight` is LINPACK's exact reference ||h(A)^-1 |0^n>||^2, read
off the ancilla's light cone in U_A's fused blocks, not off the full
2^n block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gates as G
from .chebpoly import QuadraticH
from .statevector import UNITARY_QUBIT_CAP, _apply, _ideal, _run

# rows in the pieces inverse_weight works in: the slabs of A_mid^T and of
# h(A_mid) that it builds, and the steps of its elimination
BLOCK = 32


@dataclass(frozen=True)
class BlockEncoding:
    """A circuit whose top-left block (ancillas read |0^m>) is the matrix.

    Ancillas are the m lowest-indexed qubits."""

    circuit: G.QuantumCircuit
    n_sys: int
    m: int = 1

    def __post_init__(self):
        if self.n_sys < 1 or self.m < 0:
            raise ValueError("need n_sys >= 1 and m >= 0")
        if self.circuit.n_qubits != self.n_sys + self.m:
            raise ValueError(
                f"circuit has {self.circuit.n_qubits} qubits, "
                f"expected n_sys + m = {self.n_sys + self.m}"
            )


def extract_block(be: BlockEncoding) -> np.ndarray:
    """The encoded matrix: top-left block of the circuit unitary."""
    q = be.circuit.n_qubits
    if q > UNITARY_QUBIT_CAP:
        raise ValueError(f"{q} qubits exceeds unitary cap {UNITARY_QUBIT_CAP}")
    k = 2**be.n_sys  # only the kept columns go through the circuit
    return _run(be.circuit, np.eye(2**q, k, dtype=complex))[:k]


def inverse_weight(ua: BlockEncoding, q: QuadraticH) -> float:
    """||h(A)^-1 |0^n>||^2 for h(x) = a2 x^2 + a0, from the ancilla's light
    cone in U_A's fused blocks.  A block that meets no site of the cone
    grown forward from site 0 commutes back past the cone's blocks, and
    one that meets none of the cone grown backward from site 0 commutes
    on past them; neither touches site 0.  So U_A = Post Mid Pre, where
    Pre and Post act on the system alone and Mid is the cone's blocks on
    its sites S, and A = Post A_mid Pre: A^dag A drops Post, and
    h(A)^-1 = Pre^dag h(A_mid)^-1 Pre, where Pre moves |0^n> only and
    the norm drops Pre^dag.  Mid runs on S relabelled by rank, where
    A_mid = a x I, so the solve is one system of size 2^(|S|-1) with
    the moved vector as many right-hand sides.  h(a) is built BLOCK rows
    at a time in place of a^T (row slab j of a^dag a needs the rows of a^T
    from j on, and Hermitian symmetry gives the rest) and solved in place
    by `_block_solve`, so no other array is as large as h(a) and no BLAS
    or LAPACK call sees more than BLOCK rows of it: the reference's peak
    memory stays close to one 2^(|S|-1)-square array, whatever the cone."""
    if ua.m != 1:
        raise ValueError("inverse_weight needs a 1-ancilla block-encoding")
    n = ua.circuit.n_qubits
    if n > UNITARY_QUBIT_CAP:
        raise ValueError(f"{n} qubits exceeds unitary cap {UNITARY_QUBIT_CAP}")
    if q.a0 <= 0 or q.a0 + q.a2 <= 0:
        raise ValueError("inverse_weight needs h > 0 on [-1, 1]: a0 > 0 and a0 + a2 > 0")
    pre, ahead, cone = [], [], {0}
    for u, qs in _ideal(ua.circuit, 0, False):
        if cone.isdisjoint(qs):
            pre.append((u, qs))
        else:
            cone.update(qs)
            ahead.append((u, qs))
    mid, cone = [], {0}
    for u, qs in reversed(ahead):
        if not cone.isdisjoint(qs):
            cone.update(qs)
            mid.insert(0, (u, qs))
    sites = sorted(cone)
    k = 2 ** (len(sites) - 1)
    mid = [(u, tuple(map(sites.index, qs))) for u, qs in mid]
    v = _apply(pre, np.eye(2**n, 1, dtype=complex), 2)[: 2 ** (n - 1)]
    rhs = np.moveaxis(v.reshape((2,) * (n - 1)), [s - 1 for s in sites[1:]],
                      range(len(sites) - 1)).reshape(k, -1)
    hb = np.empty((k, k + rhs.shape[1]), dtype=complex)  # [h(a) | rhs]
    h = hb[:, :k]
    for j in range(0, k, BLOCK):  # a^T, BLOCK rows at a time
        h[j : j + BLOCK] = _apply(mid, np.eye(2 * k, min(BLOCK, k - j), -j, dtype=complex), 2)[:k].T
    for j in range(0, k, BLOCK):  # a^dag a over a^T's rows j on, which no later step reads
        h[j : j + BLOCK, j:] = h[j : j + BLOCK].conj() @ h[j:].T
        h[j : j + BLOCK, :j] = h[:j, j : j + BLOCK].conj().T
    h *= q.a2
    h[range(k), range(k)] += q.a0
    hb[:, k:] = rhs
    return float(np.linalg.norm(_block_solve(hb, k)) ** 2)


def _block_solve(hb: np.ndarray, k: int) -> np.ndarray:
    """h^-1 b from hb = [h | b], which it overwrites, for a Hermitian positive
    definite h of size k: block Gaussian elimination BLOCK rows at a time,
    pivoting only within a block, since every Schur complement of such an
    h is Hermitian positive definite too.  For k <= BLOCK it is one
    np.linalg.solve."""
    for j in range(0, k, BLOCK):
        e = min(j + BLOCK, k)
        hb[j:e, e:] = np.linalg.solve(hb[j:e, j:e], hb[j:e, e:])
        for i in range(e, k, BLOCK):
            hb[i : i + BLOCK, e:] -= hb[i : i + BLOCK, j:e] @ hb[j:e, e:]
    x = hb[:, k:]
    for j in reversed(range(0, k, BLOCK)):
        e = min(j + BLOCK, k)
        x[j:e] -= hb[j:e, e:k] @ x[e:]
    return x


def _under_signal(ua: BlockEncoding, who: str):
    """(register size, U_A, U_A^dag) as parts moved up one qubit, so that
    the signal qubit is q0 and its ancilla q1."""
    if ua.m != 1:
        raise ValueError(f"{who} needs a 1-ancilla block-encoding")
    return ua.circuit.n_qubits + 1, (ua.circuit, 1, False), (ua.circuit, 1, True)


def alternate(ua: BlockEncoding, varphi, name: str) -> G.QuantumCircuit:
    """The alternating-phase circuit for circuit-convention phases varphi.

    Layout: signal qubit q0, block-encoding ancilla q1, system q2..  With
    d = len(varphi) - 1 the circuit is H(q0), then for j = d .. 1 the
    phase group of varphi_j followed by U_A and U_A^dag in turn (starting
    with U_A), then the phase group of varphi_0 and H(q0).

    A phase group is the NOT of q0 open-controlled by q1 (X, CNOT, X),
    exp(-i varphi_j Z) on q0, and that NOT again.  On (q0, q1) it is
    diag(e^{i varphi}, e^{-i varphi}, e^{-i varphi}, e^{i varphi}) =
    exp(i varphi Z0 Z1): the signal gets exp(i varphi Z) while the
    ancilla reads 0 and exp(-i varphi Z) otherwise, the projector-
    controlled phase, in the 7 gates of the reference construction.  The
    NOT is one leaf that every group shares, and H one leaf at both ends,
    so a build makes d + 5 gates: one rz per phase, X, CNOT, X and H."""
    n, ua_s, uad_s = _under_signal(ua, "the alternating circuit")
    d = len(varphi) - 1
    h = (G.from_gates(n, [G.h(0)]), 0, False)
    nots = (G.from_gates(n, [G.x(1), G.cnot(1, 0), G.x(1)]), 0, False)
    parts = [h]
    for j in range(d, -1, -1):
        parts += [nots, (G.from_gates(n, [G.rz(0, 2.0 * varphi[j])]), 0, False), nots]
        if j:
            parts.append(ua_s if (d - j) % 2 == 0 else uad_s)
    parts.append(h)
    return G.QuantumCircuit(n, name=name, parts=tuple(parts))


def build_hracbem(ua: BlockEncoding, phi0: float, phi1: float) -> BlockEncoding:
    """2-ancilla block-encoding of a2 * A^dag A + a0 * I from a 1-ancilla one.

    The degree-2 alternating circuit with phases (phi0, phi1, phi0): H(q0),
    phase group (phi0), U_A, phase group (phi1), U_A^dag, phase group
    (phi0), H(q0)."""
    return BlockEncoding(alternate(ua, (phi0, phi1, phi0), "hracbem"), ua.n_sys, m=2)


def phases_for_quadratic(a2: float, a0: float) -> tuple[float, float]:
    """Phases (phi0, phi1) for which `build_hracbem` realizes h(x) = a2 x^2 + a0.

    Closed form: with u = arccos(a0) and v = arccos(a0 + a2),
    phi0 = (u + v) / 4 and phi1 = (v - u) / 2."""
    if abs(a0) > 1 or abs(a0 + a2) > 1:
        raise ValueError("infeasible quadratic: need |a0| <= 1 and |a0 + a2| <= 1")
    u = math.acos(a0)
    v = math.acos(a0 + a2)
    return (u + v) / 4.0, (v - u) / 2.0


def build_canonical_hracbem(ua: BlockEncoding) -> BlockEncoding:
    """2-ancilla block-encoding of A^dag A using only Clifford+T overhead.

    Extra gates beyond U_A and U_A^dag are exactly 2 H, 2 CNOT, 1 Sdg, 2 T.
    """
    n, ua_s, uad_s = _under_signal(ua, "build_canonical_hracbem")
    parts = (
        (G.from_gates(n, [G.h(0), G.t(0)]), 0, False),
        ua_s,
        (G.from_gates(n, [G.cnot(1, 0), G.sdg(0), G.cnot(1, 0)]), 0, False),
        uad_s,
        (G.from_gates(n, [G.t(0), G.h(0)]), 0, False),
    )
    c = G.QuantumCircuit(n, name="canonical-hracbem", parts=parts)
    return BlockEncoding(c, ua.n_sys, m=2)

