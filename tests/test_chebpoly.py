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
    remez,
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
    for deg in (2, 4, 6):
        _, err_r = remez(lambda x: t(x) / 2.0, deg, interval=(0.0, 1.0))
        proj = project_on_interval(t, deg, (0.0, 1.0), scale=2.0)
        assert err_r <= proj.err / 2.0 + 1e-14


def test_remez_equioscillation():
    # minimax error curve must attain +-max with alternating signs at
    # degree + 2 points
    deg = 4
    scaled, alpha = apply_scaling(gibbs(4.0), (0.0, 1.0))
    poly, err = remez(scaled, deg, interval=(0.0, 1.0))
    xs = np.linspace(0.0, 1.0, 5001)
    e = poly.scale * poly(xs) - scaled(xs)
    hits = xs[np.abs(e) > 0.999 * err]
    # group contiguous hits, record sign per group
    signs = []
    last = None
    for x in hits:
        s = np.sign(poly.scale * poly(x) - scaled(x))
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


def test_compose_fit_rejects_range_mismatch():
    q = quadratic_for_condition(2.0)
    g = fit_on_interval(gibbs(1.0), 2, (0.6, 1.0))  # quadratic dips to 0.5
    with pytest.raises(ValueError):
        compose_fit(g, q)


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
