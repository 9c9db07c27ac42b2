import pickle

import numpy as np
import pytest

from racbem import gates as G
from racbem.blockenc import extract_block
from racbem.oracle import matfun_right
from racbem.phasefactors import PhaseFactors, optimize, to_varphi
from racbem.qsvt import block_of, build, gate_count_bound
from racbem.statevector import StateVector, apply, circuit_unitary
from racbem.chebpoly import ChebPoly
from conftest import random_ua
from test_statevector import _random_state


def phases_for(coeffs, parity):
    f = ChebPoly(coeffs, parity)
    phases, L = optimize(f)
    assert L < 1e-20
    return f, to_varphi(phases)


def test_gate_count_bound_values():
    assert gate_count_bound(2, 15, 3) == 113
    assert gate_count_bound(0, 1, 1) == 9
    with pytest.raises(ValueError):
        gate_count_bound(-1, 1, 1)


def test_build_even_degree_matches_singular_value_transform():
    ua = random_ua(2, seed=21)
    f, varphi = phases_for((0.0, 0.0, 1.0), "even")  # T_2
    qc = build(ua, varphi)
    A = extract_block(ua)
    want = matfun_right(A, f)
    assert np.abs(block_of(qc) - want).max() < 1e-10


def test_build_odd_degree_needs_flag():
    ua = random_ua(1, seed=4)
    f, varphi = phases_for((0.0, 1.0), "odd")  # T_1 = x
    with pytest.raises(ValueError):
        build(ua, varphi)
    qc = build(ua, varphi, allow_odd=True)
    # odd d: block is W f(Sigma) V^dag; for f = x that is A itself
    assert np.abs(block_of(qc) - extract_block(ua)).max() < 1e-10


def test_build_rejects_phi_convention():
    ua = random_ua(1, seed=4)
    with pytest.raises(ValueError):
        build(ua, PhaseFactors((0.0, 0.0, 0.0)))


def test_circuit_is_unitary_and_within_budget():
    ua = random_ua(2, seed=33)
    f, varphi = phases_for((0.2, 0.0, 0.5, 0.0, 0.2), "even")
    qc = build(ua, varphi)
    U = circuit_unitary(qc.circuit)
    assert np.allclose(U @ U.conj().T, np.eye(U.shape[0]), atol=1e-10)
    assert G.gate_count(qc.circuit)["total"] <= qc.gate_budget
    assert qc.gate_budget == gate_count_bound(
        4, ua.circuit.depth, ua.circuit.n_qubits
    )


def test_success_probability_equals_transformed_norm():
    from racbem.oracle import exact_success_prob
    from racbem.statevector import StateVector, apply, marginal_probabilities

    ua = random_ua(2, seed=12)
    f, varphi = phases_for((0.3, 0.0, 0.4), "even")
    qc = build(ua, varphi)
    s = apply(qc.circuit, StateVector.zero(qc.circuit.n_qubits))
    p_circ = marginal_probabilities(s, [0, 1])[0]
    p_ref = exact_success_prob(extract_block(ua), f, StateVector.zero(2))
    assert p_circ == pytest.approx(p_ref, abs=1e-10)


@pytest.mark.parametrize("n", [1, 4])
def test_build_makes_only_the_phase_gates(monkeypatch, n):
    # U_A and the open-controlled NOT are referred to, not copied: a
    # degree-d circuit makes d + 5 gates (d + 1 rz, X, CNOT, X and H) and
    # counts the 7(d+1) + 2 of the non-U_A term of the budget, whatever the
    # size of U_A
    ua = random_ua(n, seed=33)
    ua_gates = G.gate_count(ua.circuit)["total"]
    made = []
    init = G.Gate.__post_init__
    monkeypatch.setattr(G.Gate, "__post_init__", lambda g: made.append(g) or init(g))
    for d in (2, 7, 12):
        made.clear()
        qc = build(ua, PhaseFactors(tuple(np.linspace(0.1, 1.0, d + 1)), "varphi"),
                   allow_odd=True)
        assert len(made) == d + 5
        ua_term = d * ua.circuit.depth * ua.circuit.n_qubits
        assert (G.gate_count(qc.circuit)["total"] - d * ua_gates == 7 * (d + 1) + 2
                == gate_count_bound(d, ua.circuit.depth, n + 1) - ua_term)


def test_pickled_circuit_compares_equal_and_runs_alike():
    # a pickle keeps the fields only, parts included: not the hash or the
    # fused blocks, so the copy fuses afresh
    ua = random_ua(2, seed=12)
    _, varphi = phases_for((0.3, 0.0, 0.4), "even")
    qc = build(ua, varphi)
    s = StateVector(4, _random_state(4, np.random.default_rng(12)))
    out = apply(qc.circuit, s).amplitudes
    h = hash(qc.circuit)
    copy = pickle.loads(pickle.dumps(qc))
    assert "_hash" in vars(qc.circuit) and "_blocks" in vars(ua.circuit)
    assert not {"_hash", "_blocks"} & vars(copy.circuit).keys()
    assert not any("_blocks" in vars(p) for p, _, _ in copy.circuit.parts)
    assert copy == qc and hash(copy.circuit) == h
    assert np.abs(apply(copy.circuit, s).amplitudes - out).max() < 1e-12
    ua_copy = pickle.loads(pickle.dumps(ua))
    assert ua_copy == ua and "_blocks" not in vars(ua_copy.circuit)
