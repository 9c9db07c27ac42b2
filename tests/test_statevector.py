import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from racbem import gates as G
from racbem.statevector import (
    CountsHistogram,
    StateVector,
    apply,
    circuit_unitary,
    marginal_probabilities,
    sample_counts,
    sample_from_probs,
    success_probability_exact,
)
from test_gates import random_circuit


def test_zero_and_basis_states():
    z = StateVector.zero(2)
    assert z.amplitudes[0] == 1
    b = StateVector.basis(2, 3)
    assert b.amplitudes[3] == 1
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))  # not normalized


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_apply_matches_unitary(seed):
    c = random_circuit(seed)
    U = circuit_unitary(c)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    out = apply(c, StateVector(3, v))
    assert np.allclose(out.amplitudes, U @ v, atol=1e-12)


def test_qubit0_is_msb():
    # X on qubit 0 of a 2-qubit register maps |00> to |10> = index 2
    c = G.from_gates(2, [G.x(0)])
    out = apply(c, StateVector.zero(2))
    assert abs(out.amplitudes[2]) == pytest.approx(1.0)


def test_unitary_cap():
    with pytest.raises(ValueError):
        circuit_unitary(G.QuantumCircuit(13))


def test_success_probability_and_postselect_agree():
    c = random_circuit(7)
    s = apply(c, StateVector.zero(3))
    p = success_probability_exact(c, 1, StateVector.zero(3))
    assert marginal_probabilities(s, [0])[0] == pytest.approx(p)


def test_marginal_probabilities_order():
    # state |01>: qubit 0 = 0, qubit 1 = 1
    s = StateVector.basis(2, 1)
    assert np.allclose(marginal_probabilities(s, [0, 1]), [0, 1, 0, 0])
    assert np.allclose(marginal_probabilities(s, [1, 0]), [0, 0, 1, 0])
    assert np.allclose(marginal_probabilities(s, [1]), [0, 1])
    # a cyclic order: |100> read as (q2, q0, q1) is 010
    s = StateVector.basis(3, 4)
    assert np.allclose(marginal_probabilities(s, [2, 0, 1]), np.eye(8)[2])


def test_sample_counts_matches_born_distribution(rng):
    c = G.from_gates(1, [G.h(0)])
    shots = 8192
    counts = sample_counts(c, shots, [0], rng)
    p0 = counts.counts.get("0", 0) / shots
    # 5 sigma MC band around 0.5
    assert abs(p0 - 0.5) < 5 * 0.5 / np.sqrt(shots)


def test_sample_from_probs_deterministic(rng):
    probs = np.array([0.25, 0.75])
    a = sample_from_probs(probs, 1, 100, np.random.default_rng(3))
    b = sample_from_probs(probs, 1, 100, np.random.default_rng(3))
    assert a.counts == b.counts


def test_counts_histogram_round_trip():
    assert CountsHistogram({"00": 3, "11": 5}, 8).shots == 8
    with pytest.raises(ValueError):
        CountsHistogram({"0": 1}, 2)
