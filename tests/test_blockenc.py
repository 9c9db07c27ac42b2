import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from racbem import gates as G
from racbem.blockenc import (
    QuadraticH,
    _rotation_group,
    build_canonical_hracbem,
    build_hracbem,
    condition_bound,
    extract_block,
    phases_for_quadratic,
    quadratic_for_condition,
)
from racbem.phasefactors import PhaseFactors
from racbem.qsvt import build
from racbem.statevector import circuit_unitary
from conftest import random_ua


def quad_coeffs(phi0, phi1):
    a2 = -2.0 * math.sin(2 * phi0) * math.sin(phi1)
    a0 = math.cos(2 * phi0 - phi1)
    return a2, a0


@pytest.mark.parametrize("varphi", [0.0, 0.37, -1.2])
def test_rotation_group_is_the_projector_controlled_phase(varphi):
    # exp(i varphi Z0 Z1) on signal q0 and ancilla q1, the system left alone
    u = circuit_unitary(G.from_gates(3, _rotation_group(varphi)))
    phase = np.exp(1j * varphi * np.array([1, -1, -1, 1]))
    assert np.abs(u - np.diag(np.repeat(phase, 2))).max() < 1e-14


def test_hracbem_block_matches_formula():
    ua = random_ua(2, seed=5)
    A = extract_block(ua)
    phi0, phi1 = 0.4, -0.9
    a2, a0 = quad_coeffs(phi0, phi1)
    be = build_hracbem(ua, phi0, phi1)
    h = extract_block(be)
    want = a2 * (A.conj().T @ A) + a0 * np.eye(4)
    assert np.abs(h - want).max() < 1e-10
    assert np.abs(h - h.conj().T).max() < 1e-10
    # the Hermitian construction is the degree-2 alternating circuit
    qsvt = build(ua, PhaseFactors((phi0, phi1, phi0), "varphi"))
    assert list(be.circuit.gates()) == list(qsvt.circuit.gates())


def test_canonical_hracbem_is_a_dag_a():
    ua = random_ua(2, seed=8)
    A = extract_block(ua)
    h = extract_block(build_canonical_hracbem(ua))
    assert np.abs(h - A.conj().T @ A).max() < 1e-10


def test_canonical_equals_phased_construction():
    ua = random_ua(1, seed=3)
    a = extract_block(build_canonical_hracbem(ua))
    b = extract_block(build_hracbem(ua, math.pi / 8, -math.pi / 4))
    assert np.abs(a - b).max() < 1e-10


@given(
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
)
@settings(max_examples=50, deadline=None)
def test_phases_for_quadratic_round_trip(a0, a2_raw):
    # keep a0 + a2 inside [-1, 1]
    a2 = a2_raw * (1.0 - abs(a0)) if abs(a0) < 1 else 0.0
    phi0, phi1 = phases_for_quadratic(a2, a0)
    a2c, a0c = quad_coeffs(phi0, phi1)
    assert a2c == pytest.approx(a2, abs=1e-9)
    assert a0c == pytest.approx(a0, abs=1e-9)


def test_phases_for_quadratic_rejects_infeasible():
    with pytest.raises(ValueError):
        phases_for_quadratic(1.5, 0.0)
    with pytest.raises(ValueError):
        phases_for_quadratic(0.0, 1.5)


def test_quadratic_for_condition():
    q = quadratic_for_condition(4.0)
    assert q(0.0) == pytest.approx(0.25)
    assert q(1.0) == pytest.approx(1.0)
    assert condition_bound(q) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        quadratic_for_condition(0.5)


def test_condition_bound_is_an_upper_bound():
    # eigenvalues of h(A) are h(sigma_i); their ratio is bounded by
    # h(1)/h(0) when h is positive increasing on [0, 1]
    ua = random_ua(2, seed=14)
    q = quadratic_for_condition(3.0)
    A = extract_block(ua)
    h = q.a2 * (A.conj().T @ A) + q.a0 * np.eye(4)
    lam = np.linalg.eigvalsh(h)
    assert lam.max() / lam.min() <= condition_bound(q) + 1e-9


def test_quadratic_validation():
    with pytest.raises(ValueError):
        QuadraticH(a2=1.0, a0=0.5, phi0=0.0, phi1=0.0)  # |a0 + a2| > 1
    phi0, phi1 = phases_for_quadratic(0.5, 0.25)
    with pytest.raises(ValueError):
        QuadraticH(a2=0.6, a0=0.25, phi0=phi0, phi1=phi1)  # wrong phases


def test_build_rejects_multi_ancilla_input():
    ua = random_ua(2, seed=1)
    two = build_canonical_hracbem(ua)
    with pytest.raises(ValueError):
        build_hracbem(two, 0.1, 0.2)
