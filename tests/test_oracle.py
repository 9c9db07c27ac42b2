import numpy as np
import pytest

from racbem import oracle
from racbem.chebpoly import ChebPoly
from racbem.oracle import (
    exact_spectral_measure,
    exact_success_prob,
    exact_thermal_energy,
    exact_time_series,
    matfun_right,
)
from racbem.statevector import StateVector


def test_matfun_right_diagonal():
    A = np.diag([0.9, 0.5, 0.1, 0.0])
    f = ChebPoly((0.0, 0.0, 1.0), "even")  # T_2(x) = 2x^2 - 1
    out = matfun_right(A, f)
    want = np.diag(2 * np.diag(A) ** 2 - 1)
    assert np.allclose(out, want, atol=1e-12)


def test_matfun_right_rejects_bad_input():
    f = ChebPoly((0.5,))
    with pytest.raises(ValueError):
        matfun_right(np.diag([1.5, 0.0]), f)  # singular value > 1
    with pytest.raises(ValueError):
        matfun_right(np.ones((2, 3)), f)
    with pytest.raises(ValueError):
        matfun_right(np.array([[np.nan, 0], [0, 0]]), f)


def test_exact_success_prob():
    A = np.diag([0.8, 0.6])
    f = ChebPoly((0.0, 1.0), "odd")  # identity transform
    b = StateVector.zero(1)
    assert exact_success_prob(A, f, b) == pytest.approx(0.64)
    with pytest.raises(ValueError):
        StateVector(1, np.array([0.5, 0.5]))


def test_time_series_basics():
    H = np.diag([0.25, 0.75])
    psi = np.array([1.0, 0.0])
    assert exact_time_series(H, psi, 0.0) == pytest.approx(1.0)
    s = exact_time_series(H, psi, 2.0)
    assert s == pytest.approx(np.exp(1j * 0.5))
    with pytest.raises(ValueError):
        exact_time_series(np.array([[0, 1], [0, 0]]), psi, 1.0)


def test_spectral_measure_properties():
    H = np.diag([0.2, 0.8])
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    val = exact_spectral_measure(H, psi, 0.2, 0.1)
    # at an eigenvalue with weight 1/2, the Lorentzian peak dominates
    assert val > 0
    # integrates to 1 over the real line (check by wide quadrature)
    Es = np.linspace(-15, 16, 40001)
    vals = exact_spectral_measure(H, psi, Es, 0.1)
    assert np.trapezoid(vals, Es) == pytest.approx(1.0, abs=1e-2)
    with pytest.raises(ValueError):
        exact_spectral_measure(H, psi, 0.0, 0.0)


def test_thermal_energy_limits():
    H = np.diag([0.1, 0.4, 0.7, 1.0])
    assert exact_thermal_energy(H, 0.0) == pytest.approx(np.trace(H) / 4)
    assert exact_thermal_energy(H, 500.0) == pytest.approx(0.1, abs=1e-6)
    mid = exact_thermal_energy(H, 2.0)
    assert 0.1 < mid < np.trace(H) / 4
    with pytest.raises(ValueError):
        exact_thermal_energy(H, -1.0)


def test_grid_references_are_the_pointwise_ones():
    # one call on a grid gives each point's scalar value
    rng = np.random.default_rng(5)
    X = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    H = (X + X.conj().T) / 8
    psi = rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    Es, ts = np.linspace(-1.0, 1.0, 7), np.arange(1.0, 6.0)
    s = exact_spectral_measure(H, psi, Es, 0.2)
    assert s.shape == (7,) and isinstance(exact_spectral_measure(H, psi, 0.5, 0.2), float)
    assert np.abs(s - [exact_spectral_measure(H, psi, E, 0.2) for E in Es]).max() <= 1e-15 * s.max()
    z = exact_time_series(H, psi, ts)
    assert z.shape == (5,) and isinstance(exact_time_series(H, psi, 2.0), complex)
    assert np.abs(z - [exact_time_series(H, psi, t) for t in ts]).max() <= 1e-15


def test_matrix_cap_is_the_system_register_of_the_largest_ua(monkeypatch):
    # a matrix on at most UNITARY_QUBIT_CAP - 1 qubits, read at call time
    monkeypatch.setattr(oracle, "UNITARY_QUBIT_CAP", 3)
    psi = np.eye(8)[0]
    assert exact_time_series(np.eye(4), psi[:4], 1.0) == pytest.approx(np.exp(1j))
    with pytest.raises(ValueError, match="^dimension 8 exceeds cap 4$"):
        exact_time_series(np.eye(8), psi, 1.0)
