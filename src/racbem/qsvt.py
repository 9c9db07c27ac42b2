"""Alternating-phase circuits applying a polynomial to singular values.

Given a 1-ancilla block-encoding U_A and circuit-convention phases
(varphi_0 .. varphi_d), the assembled circuit on signal + ancilla +
system qubits block-encodes f|>(A) = V f(Sigma) V^dag, where f is the
real polynomial the phases encode.  Each phased rotation costs 7 logical
gates (4 X, 2 CNOT, 1 Z-rotation), so with 2 H the count beside U_A is
7(d+1) + 2.  A build makes only d + 5 gates, since `blockenc.alternate`
refers to U_A, U_A^dag and one shared open-controlled NOT as parts.
This module adds the phase checks and gate budget; a built circuit
carries its budget, not the phases it came from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gates as G
from .blockenc import BlockEncoding, alternate, extract_block
from .phasefactors import PhaseFactors


def gate_count_bound(d: int, ell: int, n: int) -> int:
    """Logical gate budget 2 + 7(d+1) + d*ell*n.

    n is the total qubit count of U_A and ell its layer count; the d
    applications of U_A dominate for deep circuits.  Equality holds when
    every U_A layer uses n one-or-two-operand gates touching all qubits
    (a full layer counts at most n gates, fewer when CNOTs pair qubits).
    """
    if d < 0 or ell < 0 or n < 0:
        raise ValueError("arguments must be nonnegative")
    return 2 + 7 * (d + 1) + d * ell * n


@dataclass(frozen=True)
class QsvtCircuit:
    circuit: G.QuantumCircuit
    n_sys: int
    gate_budget: int


def build(
    ua: BlockEncoding, varphi: PhaseFactors, allow_odd: bool = False
) -> QsvtCircuit:
    """Assemble the alternating circuit for the given phases.

    The degree d = len(varphi) - 1 must be even unless allow_odd is set
    (odd circuits end with an unpaired U_A, so their block is
    W f(Sigma) V^dag rather than a Hermitian V f(Sigma) V^dag)."""
    if varphi.convention != "varphi":
        raise ValueError("build takes circuit-convention (varphi) phases")
    d = varphi.degree
    if d % 2 and not allow_odd:
        raise ValueError("odd degree requires allow_odd=True")
    circuit = alternate(ua, varphi.values, f"qsvt-d{d}")
    budget = gate_count_bound(d, ua.circuit.depth, ua.circuit.n_qubits)
    return QsvtCircuit(circuit, ua.n_sys, budget)


def block_of(qc: QsvtCircuit) -> np.ndarray:
    """The encoded matrix (both ancillas post-selected on 0)."""
    return extract_block(BlockEncoding(qc.circuit, qc.n_sys, m=2))
