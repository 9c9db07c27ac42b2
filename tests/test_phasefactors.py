import numpy as np
import numpy.polynomial.chebyshev as C
import pytest
from hypothesis import given, settings, strategies as st

from racbem.chebpoly import (
    ChebPoly,
    compose_fit,
    fit_on_interval,
    inverse,
    lorentzian_sqrt,
    quadratic_for_condition,
)
from racbem import phasefactors
from racbem.phasefactors import (
    CONVERGED_L,
    SCAN_ROWS,
    PhaseFactors,
    _nodes,
    _residuals_and_derivs,
    gradient,
    objective,
    optimize,
    qsp_value,
    to_phi,
    to_varphi,
    u_phi,
)
from racbem.tasks import canonical_quadratic


def cheb_target(d, amp=1.0):
    coeffs = [0.0] * (d + 1)
    coeffs[d] = amp
    return ChebPoly(tuple(coeffs), "even" if d % 2 == 0 else "odd")


def test_phasefactors_validation():
    with pytest.raises(ValueError):
        PhaseFactors(())
    with pytest.raises(ValueError):
        PhaseFactors((0.1,), convention="bad")
    assert PhaseFactors((0.1, 0.2, 0.1)).degree == 2


def test_u_phi_unitary():
    p = PhaseFactors((0.2, 0.5, -0.1))
    u = u_phi(0.3, p)
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
    with pytest.raises(ValueError):
        u_phi(1.2, p)


def test_trivial_phases_encode_chebyshev():
    # all-zero phases give U = W^d whose (0,0) entry is cos(d arccos x) = T_d
    for d in (1, 2, 3, 5):
        p = PhaseFactors((0.0,) * (d + 1))
        xs = np.linspace(-1, 1, 21)
        assert np.allclose(qsp_value(xs, p), np.cos(d * np.arccos(xs)), atol=1e-12)


def test_optimize_chebyshev_targets():
    for d in (2, 3, 6):
        f = cheb_target(d)
        phases, L = optimize(f)
        assert L < 1e-20
        xs = np.linspace(-1, 1, 101)
        assert np.abs(qsp_value(xs, phases) - f(xs)).max() < 1e-9


def test_optimize_scaled_target():
    f = ChebPoly((0.3, 0.0, 0.4, 0.0, 0.1), "even")
    phases, L = optimize(f)
    assert L < 1e-20
    assert phases.values == phases.values[::-1]


def test_optimize_spectral_target_that_stalled_lbfgs():
    # E=0.7, length 39 on the deep spectral grid: a quasi-Newton solve
    # stalled here at L ~ 2e-9
    q = canonical_quadratic()
    f = compose_fit(fit_on_interval(lorentzian_sqrt(0.2, 0.7), 19, (q.a0, q.a0 + q.a2)), q)
    assert f.degree == 38
    phases, L = optimize(f)
    assert L <= CONVERGED_L
    xs = np.linspace(-1, 1, 201)
    assert np.abs(qsp_value(xs, phases) - f(xs)).max() < 1e-9


def test_optimize_linpack_target_at_degree_240(monkeypatch):
    # the linpack target at (kappa, d) = (200, 240), as linpack_run fits it;
    # the solve stops at L's round-off floor (about 1e-31 here) instead of
    # taking and halving steps that only move round-off
    q = quadratic_for_condition(200)
    f = compose_fit(fit_on_interval(inverse(200), 120, (q.a0, q.a0 + q.a2), 0.0), q)
    assert f.degree == 240
    calls = []
    evaluate = phasefactors._residuals_and_derivs

    def counted(*args):
        calls.append(1)
        return evaluate(*args)

    monkeypatch.setattr(phasefactors, "_residuals_and_derivs", counted)
    phases, L = optimize(f)
    assert L <= CONVERGED_L
    assert len(calls) <= 25
    xs = np.linspace(-1, 1, 41)
    assert np.abs(qsp_value(xs, phases) - f(xs)).max() < 1e-9


def test_optimize_reports_infeasible_target():
    # the degree-7 Gibbs numerator fit at beta = 8 raised to peak 1e-6
    # above 1: a sampled grid (30 d + 31 Chebyshev and 2,001 uniform
    # points) still reads 4e-7 below 1 there
    raw = (0.0, 0.4294603233615999, 0.0, -0.5620586684857669,
           0.0, 0.2966682740560377, 0.0, -0.10625800151703114)
    xs = np.cos(np.linspace(0, np.pi, 200_001))
    assert np.abs(C.chebval(xs, raw)).max() > 1 + 5e-7
    # ChebPoly finds the peak, which lies between the points of a sampled grid
    with pytest.raises(ValueError, match="exceeds 1"):
        ChebPoly(raw, "odd")
    # no phases reproduce it: built past validation, the solve must
    # return and say so through L
    bad = object.__new__(ChebPoly)
    for name, value in (("coeffs", raw), ("parity", "odd"), ("scale", 1.0)):
        object.__setattr__(bad, name, value)
    phases, L = optimize(bad)
    assert L > CONVERGED_L
    assert phases.values == phases.values[::-1]


def test_singular_jacobian_is_a_stall(monkeypatch):
    # a Newton solve that finds J singular ends the loop and reports
    # the last state through L; it does not raise
    f = cheb_target(6, amp=0.7)

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    phases, L = optimize(f)
    flat = PhaseFactors((np.pi / 4,) + (0.0,) * 5 + (np.pi / 4,))
    assert phases == flat
    assert L == objective(flat, f) > CONVERGED_L


# degrees inside one chunk of the prefix scan and around its boundaries
DEGREES = st.one_of(
    st.integers(2, 8),
    st.integers(SCAN_ROWS - 1, SCAN_ROWS + 2),
    st.integers(2 * SCAN_ROWS - 1, 2 * SCAN_ROWS + 2),
)


@given(st.integers(0, 10**6), DEGREES)
@settings(max_examples=30, deadline=None)
def test_gradient_matches_finite_differences(seed, d):
    rng = np.random.default_rng(seed)
    f = cheb_target(d, amp=0.7)
    p = PhaseFactors(tuple(rng.uniform(-1, 1, d + 1)))
    g = gradient(p, f)
    eps = 1e-6
    for k in rng.choice(d + 1, size=min(3, d + 1), replace=False):
        v = list(p.values)
        v[k] += eps
        up = objective(PhaseFactors(tuple(v)), f)
        v[k] -= 2 * eps
        dn = objective(PhaseFactors(tuple(v)), f)
        fd = (up - dn) / (2 * eps)
        assert g[k] == pytest.approx(fd, rel=1e-4, abs=1e-9)


@pytest.mark.parametrize("d", [1, 2, 7, 32, 33, 40, 64, 65, 130])
def test_objective_matches_independent_evaluator(d):
    # the solver kernel against the sequential 2x2 matrix products of
    # qsp_value, at degrees that end a chunk of the prefix scan or start one
    rng = np.random.default_rng(d)
    f = cheb_target(d, amp=0.7)
    p = PhaseFactors(tuple(rng.uniform(-np.pi, np.pi, d + 1)))
    xs = _nodes(d)
    want = qsp_value(xs, p) - f(xs)
    res, _ = _residuals_and_derivs(np.asarray(p.values), xs, f(xs))
    assert np.abs(res - want).max() < 1e-13
    assert objective(p, f) == pytest.approx(np.mean(want**2), rel=0, abs=1e-14)


def test_objective_parity_check():
    f = cheb_target(3)
    with pytest.raises(ValueError):
        objective(PhaseFactors((0.0, 0.0, 0.0)), f)  # degree mismatch


def test_optimize_rejects_a_polynomial_without_its_degrees_parity():
    # the solve folds on the positive nodes: given a polynomial of another
    # parity it would converge to phases of a different polynomial
    for f in (ChebPoly((0.1, 0.2, 0.3), "none"), ChebPoly((0.3, 0.0, 0.4, 0.0), "even"),
              ChebPoly((0.0, 0.5), "none")):
        with pytest.raises(ValueError, match="target parity"):
            optimize(f)


def test_varphi_round_trip():
    p = PhaseFactors((0.4, -0.2, 0.7, -0.2, 0.4))
    back = to_phi(to_varphi(p))
    assert np.abs(np.array(back.values) - np.array(p.values)).max() < 1e-15
    assert to_varphi(p).convention == "varphi"


def test_to_varphi_rejects_wrong_convention():
    v = to_varphi(PhaseFactors((0.1, 0.2)))
    with pytest.raises(ValueError):
        to_varphi(v)
    with pytest.raises(ValueError):
        to_phi(PhaseFactors((0.1, 0.2)))
