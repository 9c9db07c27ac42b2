"""Block-encodings and Hermitian random-circuit block-encoded matrices.

A circuit U on m + n_sys qubits block-encodes the matrix
A = (<0^m| x I) U (|0^m> x I), the top-left 2^n_sys x 2^n_sys block of
the circuit unitary under the qubit-0-is-MSB ordering.  From a 1-ancilla
block-encoding of A this module builds 2-ancilla block-encodings of the
Hermitian matrix h(A) = a2 * A^dag A + a0 * I, where the quadratic
h(x) = a2 x^2 + a0 is selected by two rotation phases.  That circuit is
the degree-2 case of the alternating-phase circuit, and `alternate` is
the one assembler for both it and `qsvt.build`.  An assembled circuit
copies no gate of U_A: its parts refer to `ua.circuit` at qubit offset
1, with dagger for U_A^dag, between gate-level phase groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gates as G
from .statevector import UNITARY_QUBIT_CAP, _run


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


@dataclass(frozen=True)
class QuadraticH:
    """The quadratic h(x) = a2 x^2 + a0 with its realizing phases.

    Constraints |a0| <= 1 and |a0 + a2| <= 1 keep |h| <= 1 on [-1, 1].
    The phases satisfy a2 = -2 sin(2 phi0) sin(phi1), a0 = cos(2 phi0 - phi1).
    """

    a2: float
    a0: float
    phi0: float
    phi1: float

    def __post_init__(self):
        tol = 1e-9
        if abs(self.a0) > 1 + tol or abs(self.a0 + self.a2) > 1 + tol:
            raise ValueError("|a0| and |a0 + a2| must be <= 1")
        a2c = -2.0 * math.sin(2 * self.phi0) * math.sin(self.phi1)
        a0c = math.cos(2 * self.phi0 - self.phi1)
        if abs(a2c - self.a2) > 1e-9 or abs(a0c - self.a0) > 1e-9:
            raise ValueError("phases do not realize (a2, a0)")

    def __call__(self, x):
        return self.a2 * np.asarray(x) ** 2 + self.a0


def extract_block(be: BlockEncoding) -> np.ndarray:
    """The encoded matrix: top-left block of the circuit unitary."""
    q = be.circuit.n_qubits
    if q > UNITARY_QUBIT_CAP:
        raise ValueError(f"{q} qubits exceeds unitary cap {UNITARY_QUBIT_CAP}")
    k = 2**be.n_sys  # only the kept columns go through the circuit
    return _run(be.circuit, np.eye(2**q, k, dtype=complex))[:k]


def _under_signal(ua: BlockEncoding, who: str):
    """(register size, U_A, U_A^dag) as parts moved up one qubit, so that
    the signal qubit is q0 and its ancilla q1."""
    if ua.m != 1:
        raise ValueError(f"{who} needs a 1-ancilla block-encoding")
    return ua.circuit.n_qubits + 1, (ua.circuit, 1, False), (ua.circuit, 1, True)


def _rotation_group(varphi: float) -> list[G.Gate]:
    """Open-controlled-NOT sandwich around exp(-i varphi Z) on signal q0.

    Ancilla q1 controls.  On (q0, q1) the sandwich is
    diag(e^{i varphi}, e^{-i varphi}, e^{-i varphi}, e^{i varphi}) =
    exp(i varphi Z0 Z1): the signal gets exp(i varphi Z) while the ancilla
    reads 0 and exp(-i varphi Z) otherwise, the projector-controlled
    phase.  It is kept verbatim from the reference construction so gate
    counts match the 7-gate budget."""
    return [
        G.x(1),
        G.cnot(1, 0),
        G.x(1),
        G.rz(0, 2.0 * varphi),
        G.x(1),
        G.cnot(1, 0),
        G.x(1),
    ]


def alternate(ua: BlockEncoding, varphi, name: str) -> G.QuantumCircuit:
    """The alternating-phase circuit for circuit-convention phases varphi.

    Layout: signal qubit q0, block-encoding ancilla q1, system q2..  With
    d = len(varphi) - 1 the circuit is H(q0), then for j = d .. 1 the
    rotation group of varphi_j followed by U_A and U_A^dag in turn
    (starting with U_A), then the rotation group of varphi_0 and H(q0)."""
    n, ua_s, uad_s = _under_signal(ua, "the alternating circuit")
    d = len(varphi) - 1
    parts = [(G.from_gates(n, [G.h(0)]), 0, False)]
    for j in range(d, 0, -1):
        parts.append((G.from_gates(n, _rotation_group(varphi[j])), 0, False))
        parts.append(ua_s if (d - j) % 2 == 0 else uad_s)
    parts.append((G.from_gates(n, _rotation_group(varphi[0]) + [G.h(0)]), 0, False))
    return G.QuantumCircuit(n, name=name, parts=tuple(parts))


def build_hracbem(ua: BlockEncoding, phi0: float, phi1: float) -> BlockEncoding:
    """2-ancilla block-encoding of a2 * A^dag A + a0 * I from a 1-ancilla one.

    The degree-2 alternating circuit with phases (phi0, phi1, phi0): H(q0),
    rotation group (phi0), U_A, rotation group (phi1), U_A^dag, rotation
    group (phi0), H(q0)."""
    return BlockEncoding(alternate(ua, (phi0, phi1, phi0), "hracbem"), ua.n_sys, m=2)


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


def phases_for_quadratic(a2: float, a0: float) -> tuple[float, float]:
    """Phases (phi0, phi1) realizing h(x) = a2 x^2 + a0.

    Closed form: with u = arccos(a0) and v = arccos(a0 + a2),
    phi0 = (u + v) / 4 and phi1 = (v - u) / 2."""
    if abs(a0) > 1 or abs(a0 + a2) > 1:
        raise ValueError("infeasible quadratic: need |a0| <= 1 and |a0 + a2| <= 1")
    u = math.acos(a0)
    v = math.acos(a0 + a2)
    return (u + v) / 4.0, (v - u) / 2.0


def quadratic_for_condition(kappa: float) -> QuadraticH:
    """h_kappa(x) = (1 - 1/kappa) x^2 + 1/kappa, condition bound kappa."""
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    a2 = 1.0 - 1.0 / kappa
    a0 = 1.0 / kappa
    phi0, phi1 = phases_for_quadratic(a2, a0)
    return QuadraticH(a2=a2, a0=a0, phi0=phi0, phi1=phi1)


def condition_bound(q: QuadraticH) -> float:
    """Upper bound on the condition number of h(A): (a0 + a2) / a0.

    Valid when h is positive and increasing on [0, 1], i.e. a0 > 0 and
    a2 >= 0 (h ranges over [a0, a0 + a2] as x^2 sweeps [0, 1])."""
    if q.a0 <= 0 or q.a2 < 0:
        raise ValueError("condition bound needs a0 > 0 and a2 >= 0")
    return (q.a0 + q.a2) / q.a0
