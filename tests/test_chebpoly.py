import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import chebyshev as C

from racbem import chebpoly
from racbem.chebpoly import (
    ChebPoly,
    QuadraticH,
    apply_scaling,
    compose_fit,
    cos_sqrt,
    fit_on_interval,
    fit_scaled,
    gibbs,
    inverse,
    lorentzian_sqrt,
    odd_gibbs,
    project_on_interval,
    quadratic_for_condition,
    sin_sqrt,
)


def test_chebpoly_validation():
    with pytest.raises(ValueError):
        ChebPoly(())
    with pytest.raises(ValueError):
        ChebPoly((0.0, 0.5), parity="even")  # odd coefficient present
    with pytest.raises(ValueError):
        ChebPoly((1.5,))  # exceeds 1
    with pytest.raises(ValueError):
        ChebPoly((0.5,), scale=-1.0)


def test_eval_matches_numpy():
    p = ChebPoly((0.1, 0.0, 0.3, 0.0, 0.2), parity="even")
    xs = np.linspace(-1, 1, 37)
    assert np.allclose(p(xs), C.chebval(xs, p.coeffs))
    with pytest.raises(ValueError):
        p(1.5)


def test_json_round_trip():
    p = ChebPoly((0.0, 0.4, 0.0, 0.1), parity="odd", scale=2.5)
    assert ChebPoly.from_json(p.to_json()) == p


def test_target_functions_reference_values():
    assert inverse(2.0)(0.5) == pytest.approx(2.0)
    assert cos_sqrt(0.0, 1.0)(0.3) == pytest.approx(1.0)
    assert sin_sqrt(np.pi, 1.0)(0.5) == pytest.approx(1.0)
    assert lorentzian_sqrt(0.2, 0.5)(0.5) == pytest.approx(1.0)
    assert gibbs(2.0)(1.0) == pytest.approx(np.exp(-1.0))
    assert odd_gibbs(2.0)(-0.5) == pytest.approx(-0.5 * np.exp(-0.25))


def test_apply_scaling():
    f, s = apply_scaling(lambda x: 3.0 * np.asarray(x), (0.0, 1.0), margin=0.0)
    assert s == pytest.approx(3.0)
    assert f(1.0) == pytest.approx(1.0)
    with np.errstate(divide="ignore"), pytest.raises(ValueError):
        apply_scaling(lambda x: 1.0 / np.asarray(x), (0.0, 1.0))


def test_remez_at_most_projection_error():
    t = gibbs(3.0)
    _, alpha = apply_scaling(t, (0.0, 1.0))
    for deg in (2, 4, 6):
        _, err_r = fit_scaled(t, deg, "none", (0.0, 1.0))
        proj = project_on_interval(t, deg, (0.0, 1.0), scale=alpha)
        assert err_r / alpha <= proj.err / alpha + 1e-14


def _chebfit_projection(f, degree, interval):
    """The truncated expansion by least squares: chebfit of f at 2 (degree + 1)
    first-kind nodes of the mapped interval, truncated to degree + 1 terms."""
    a, b = interval
    npts = 2 * (degree + 1)
    xi = np.cos((2 * np.arange(npts) + 1) * np.pi / (2 * npts))
    vals = np.asarray(f(0.5 * (b - a) * xi + 0.5 * (b + a)), dtype=float)
    return C.chebfit(xi, vals, npts - 1)[: degree + 1]


def test_projection_is_the_chebfit_expansion():
    # project_on_interval interpolates at degree 2d + 1 and truncates: the
    # least-squares chebfit on the same nodes, from d = 1 to 200
    for t, interval, scale in [(gibbs(3.0), (0.0, 1.0), 2.0), (inverse(10.0), (0.1, 1.0), 10.0),
                               (lorentzian_sqrt(0.2, 0.5), (0.0, 1.0), 1.0),
                               (cos_sqrt(3.0, 1.0), (0.0, 1.0), 1.5)]:
        for d in (*range(1, 9), 16, 31, 64, 100, 137, 200):
            got = np.array(project_on_interval(t, d, interval, scale=scale).coeffs)
            want = _chebfit_projection(lambda x: np.asarray(t(x)) / scale, d, interval)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_empty_fit_interval_raises():
    # a zero-width interval (inverse at kappa 1) or a reversed one names the
    # interval, for the global fit at each parity and the interval fit alike
    for fit in (lambda: fit_scaled(gibbs(1.0), 5, "odd", (0.8, 0.2)),
                lambda: fit_scaled(inverse(1.0), 4, "even"),
                lambda: fit_scaled(inverse(1.0), 4),
                lambda: fit_on_interval(inverse(1.0), 2, (1.0, 1.0)),
                lambda: fit_on_interval(gibbs(1.0), 2, (0.8, 0.2))):
        with pytest.raises(ValueError, match=r"^empty fit interval \["):
            fit()


def test_remez_equioscillation():
    # minimax error curve must attain +-max with alternating signs at
    # degree + 2 points
    deg = 4
    t = gibbs(4.0)
    _, alpha = apply_scaling(t, (0.0, 1.0))
    poly, err = fit_scaled(t, deg, "none", (0.0, 1.0))
    xs = np.linspace(0.0, 1.0, 5001)
    e = (poly.scale * poly(xs) - t(xs)) / alpha
    hits = xs[np.abs(e) > 0.999 * err / alpha]
    # group contiguous hits, record sign per group
    signs = []
    last = None
    for x in hits:
        s = np.sign((poly.scale * poly(x) - t(x)) / alpha)
        if last is None or s != last:
            signs.append(s)
            last = s
    assert len(signs) >= deg + 2


def test_remez_error_decreases_with_degree():
    errs = []
    for deg in (2, 4, 6, 8):
        _, err = fit_scaled(inverse(3.0), deg, "even", (1.0 / 3.0, 1.0))
        errs.append(err)
    assert all(a > b for a, b in zip(errs, errs[1:]))


@given(st.integers(2, 8), st.sampled_from([2.0, 3.0, 5.0]))
@settings(max_examples=12, deadline=None)
def test_fit_scaled_error_contract(deg, kappa):
    deg = 2 * (deg // 2)
    if deg < 2:
        deg = 2
    poly, err = fit_scaled(inverse(kappa), deg, "even", (1.0 / kappa, 1.0))
    xs = np.linspace(1.0 / kappa, 1.0, 801)
    dev = np.abs(poly.scale * poly(xs) - 1.0 / xs).max()
    assert dev <= err * (1 + 1e-9)


def test_fit_scaled_parity():
    poly, _ = fit_scaled(odd_gibbs(2.0), 5, "odd", (0.0, 1.0))
    assert poly.parity == "odd"
    xs = np.linspace(-1, 1, 101)
    assert np.allclose(poly(xs), -poly(-xs), atol=1e-12)


def test_fit_scaled_builds_one_chebpoly(monkeypatch):
    # the fit is expanded once, straight to the target's scale: one ChebPoly
    # per fit, whose scale is the target scaling times any overshoot bump
    built = []
    check = ChebPoly.__post_init__
    monkeypatch.setattr(ChebPoly, "__post_init__", lambda self: built.append(self) or check(self))
    for t, degree, parity, interval, bumped in (
            (gibbs(1.0), 4, "even", (0.0, 1.0), False),
            (odd_gibbs(2.0), 7, "odd", (0.0, 1.0), False),
            (cos_sqrt(3.0, 1.5), 8, "even", (0.0, 1.0), False),
            (gibbs(1.0), 4, "none", (0.0, 1.0), True),
            (inverse(2.0), 6, "even", (0.5, 1.0), True)):
        built.clear()
        poly, _ = fit_scaled(t, degree, parity, interval)
        assert built == [poly]
        _, alpha = apply_scaling(t, interval)
        assert (poly.scale != alpha) == bumped


def test_negative_fit_degree_raises_before_numpy():
    with np.errstate(all="raise"):
        for fit in (lambda: fit_scaled(gibbs(1.0), -2, "even"), lambda: fit_scaled(gibbs(1.0), -1),
                    lambda: fit_on_interval(gibbs(1.0), -1, (0.0, 1.0))):
            with pytest.raises(ValueError, match="^fit degree must be >= 0$"):
                fit()


def test_fit_on_interval_contract():
    t = gibbs(2.0)
    g = fit_on_interval(t, 3, (0.25, 1.0))
    xs = np.linspace(0.25, 1.0, 801)
    dev = np.abs(g.scale * g(xs) - t(xs)).max()
    assert dev <= g.err * (1 + 1e-9)
    assert np.abs(g(xs)).max() <= 1.0


def test_fit_error_is_the_sup():
    # the error is refined past the exchange grid, to the sup between its points
    q = quadratic_for_condition(100.0)
    g = fit_on_interval(inverse(100.0), 60, (q.a0, q.a0 + q.a2), margin=0.0)
    xs = np.linspace(q.a0, q.a0 + q.a2, 200_001)
    dev = np.abs(g.scale * g(xs) - 1.0 / xs).max()
    assert dev * (1 - 1e-9) <= g.err <= dev * (1 + 1e-6)


@pytest.mark.parametrize("degree", [6, 10, 14, 16])
def test_fit_of_target_even_about_the_midpoint(degree):
    # lorentzian_sqrt(eta, 0.5) is even about the middle of [0, 1]; its
    # best fit is even, so at even degree the symmetric start references
    # level the error to 0 and the exchange cannot leave them
    t = lorentzian_sqrt(0.2, 0.5)
    g = fit_on_interval(t, degree, (0.0, 1.0))
    assert g.degree == degree
    xs = np.linspace(0.0, 1.0, 200_001)
    dev = np.abs(g.scale * g(xs) - t(xs)).max()
    assert dev * (1 - 1e-9) <= g.err <= dev * (1 + 1e-6)
    # the best fit of degree + 1 is the same polynomial
    assert g.err == pytest.approx(fit_on_interval(t, degree + 1, (0.0, 1.0)).err, rel=1e-9)


def test_inverse_fit_at_kappa_400():
    # the degree-400 inverse fit of the paper's LINPACK scaling in kappa
    g = fit_on_interval(inverse(400.0), 200, (1.0 / 400.0, 1.0), margin=0.0)
    xs = np.linspace(1.0 / 400.0, 1.0, 20_001)
    dev = np.abs(g.scale * g(xs) - 1.0 / xs).max()
    assert dev <= g.err * (1 + 1e-9) and g.err < 5e-7


def test_exact_bound_once_per_fit(monkeypatch):
    # one colleague-matrix eigensolve per polynomial, not one per check
    solves = []
    roots = chebpoly.C.chebroots
    monkeypatch.setattr(chebpoly.C, "chebroots", lambda c: solves.append(1) or roots(c))
    chebpoly._max_abs.cache_clear()
    fit_scaled(odd_gibbs(2.0), 5, "odd", (0.0, 1.0))
    assert len(solves) == 1
    q = quadratic_for_condition(2.0)
    f = compose_fit(fit_on_interval(inverse(2.0), 3, (q.a0, q.a0 + q.a2)), q)
    assert len(solves) == 2
    assert ChebPoly.from_json(f.to_json()) == f and len(solves) == 2


def _full_degree_max(coeffs):
    c = np.asarray(coeffs, dtype=float)
    stationary = np.clip(C.chebroots(C.chebder(c)).real, -1.0, 1.0)
    return float(np.abs(C.chebval(np.concatenate([[-1.0, 1.0], stationary]), c)).max())


def test_even_bound_solves_at_half_degree(monkeypatch):
    d = 40
    coeffs = np.zeros(d + 1)
    coeffs[::2] = np.random.default_rng(1).normal(size=d // 2 + 1) / d
    companions = []
    roots = chebpoly.C.chebroots
    monkeypatch.setattr(chebpoly.C, "chebroots", lambda c: companions.append(len(c) - 1) or roots(c))
    chebpoly._max_abs.cache_clear()
    chebpoly._max_abs(tuple(coeffs))
    assert companions and max(companions) <= d // 2 - 1


def test_even_bound_matches_full_degree():
    rng = np.random.default_rng(7)
    chebpoly._max_abs.cache_clear()
    for d in (2, 4, 10, 30, 86):
        for _ in range(5):
            coeffs = np.zeros(d + 1)
            coeffs[::2] = rng.normal(size=d // 2 + 1)
            want = _full_degree_max(coeffs)
            assert chebpoly._max_abs(tuple(coeffs)) == pytest.approx(want, rel=1e-12)
    # a constant does not recurse; T4 alone reduces twice, to T1
    assert chebpoly._max_abs((-0.3,)) == 0.3
    assert chebpoly._max_abs((-0.3, 0.0)) == 0.3
    assert chebpoly._max_abs((0.0, 0.0, 0.0, 0.0, -0.7)) == pytest.approx(0.7, rel=1e-15)


def test_compose_fit_matches_direct_evaluation():
    q = quadratic_for_condition(2.0)
    g = fit_on_interval(inverse(2.0), 3, (q.a0, q.a0 + q.a2), margin=0.0)
    f = compose_fit(g, q)
    assert f.parity == "even"
    assert f.degree == 2 * g.degree
    xs = np.linspace(-1, 1, 201)
    assert np.allclose(f.scale * f(xs), g.scale * g(q(xs)), atol=1e-10)


def _composite_by_interpolation(g, q):
    """scale x coefficients of g(q(x)) interpolated at degree 2 deg(g): the
    composite as it was built before the coefficients were placed by index."""
    return g.scale * C.chebinterpolate(lambda x: g(q(x)), 2 * g.degree)


SQUARE = QuadraticH(1.0, 0.0)  # h(x) = x^2, the quadratic of the canonical tasks

COMPOSITES = [
    *((inverse(k), quadratic_for_condition(k), dg, 0.0)
      for k, dg in ((2.0, 3), (10.0, 8), (50.0, 30), (100.0, 60), (200.0, 120), (400.0, 120))),
    (lorentzian_sqrt(0.2, 0.7), SQUARE, 19, chebpoly.DEFAULT_MARGIN),
    (lorentzian_sqrt(0.05, 0.3), SQUARE, 120, chebpoly.DEFAULT_MARGIN),
    (gibbs(4.0), SQUARE, 7, chebpoly.DEFAULT_MARGIN),
    (cos_sqrt(9.0, 1.5), SQUARE, 10, chebpoly.DEFAULT_MARGIN),
    (sin_sqrt(9.0, 1.5), SQUARE, 10, chebpoly.DEFAULT_MARGIN),
    # unscaled, this fit peaks 3.3e-4 above 1: the excess goes into the scale
    (cos_sqrt(9.0, 1.5), SQUARE, 19, 0.0),
]


@pytest.mark.parametrize("target, q, dg, margin", COMPOSITES)
def test_compose_fit_places_the_fit_on_even_indices(target, q, dg, margin):
    # g's unit variable on h's range is T_2(x), so f's coefficients are g's
    # on the even indices: the interpolated composite to round-off, and
    # g's own bits wherever no rescale was needed
    g = fit_on_interval(target, dg, (q.a0, q.a0 + q.a2), margin)
    f = compose_fit(g, q)
    want = _composite_by_interpolation(g, q)
    assert f.degree == 2 * dg and f.parity == "even"
    assert np.abs(f.scale * np.array(f.coeffs) - want).max() <= 1e-12 * np.abs(want).max()
    if f.scale == g.scale:
        assert f.coeffs[::2] == g.coeffs and not any(f.coeffs[1::2])
    else:
        assert chebpoly._max_abs(g.coeffs) > 1 + chebpoly.BOUND_TOL


def test_compose_fit_rejects_range_mismatch():
    q = quadratic_for_condition(2.0)
    # the quadratic's range [0.5, 1] leaves the fit interval, lies strictly
    # inside it, or runs down it (a decreasing h)
    for g, h in ((fit_on_interval(gibbs(1.0), 2, (0.6, 1.0)), q),
                 (fit_on_interval(gibbs(1.0), 2, (0.4, 1.0)), q),
                 (fit_on_interval(gibbs(1.0), 2, (0.5, 1.0)), QuadraticH(-0.5, 1.0))):
        with pytest.raises(ValueError, match="quadratic range is not the fit interval"):
            compose_fit(g, h)


def test_expand_rescales_exactly_when_chebpoly_would_reject():
    # a max in (1, 1 + BOUND_TOL] is realizable as it is; above that the
    # excess goes into the scale
    for top, scaled in ((1.0, False), (1 + 0.5 * chebpoly.BOUND_TOL, False),
                        (1 + chebpoly.BOUND_TOL, False), (1 + 2 * chebpoly.BOUND_TOL, True),
                        (1.5, True)):
        coeffs = np.array([0.0, 0.0, top])
        p = chebpoly._expand(coeffs.copy(), "even", 3.0)
        assert ChebPoly(p.coeffs, p.parity, p.scale) == p
        if scaled:
            assert p.scale > 3.0 and chebpoly._max_abs(p.coeffs) < 1.0
            assert p.scale * p.coeffs[2] == pytest.approx(3.0 * top, rel=1e-15)
        else:
            assert p.scale == 3.0 and p.coeffs == tuple(coeffs)


@pytest.mark.parametrize("module", ["racbem.chebpoly", "racbem.phasefactors"])
def test_fit_layer_loads_no_circuit_code(module):
    # the fit layer and the phase solver stand alone: no gate model or simulator
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    loaded = json.loads(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                       text=True, check=True).stdout)
    assert module in loaded
    assert not {"racbem.blockenc", "racbem.gates", "racbem.statevector"} & set(loaded)
