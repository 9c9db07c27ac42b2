"""Chebyshev polynomials, minimax (Remez) fitting, target functions and
the quadratic h(x) = a2 x^2 + a0 that targets a condition number.

Polynomials are stored as Chebyshev coefficients on [-1, 1] and must be
bounded by 1 there (the bound a signal-processing circuit can realize);
the ``scale`` field records the divisor that was applied to the original
target so callers can undo it.  Fitting happens on a subinterval [a, b]
where the target is smooth, by a multi-point Remez exchange whose
reported error is the sup of the returned polynomial's error there.
`fit_scaled`, the one global fitter, scales the target, fits it with the
parity asked for and re-expands the fit in the global basis (`_expand`).
`compose_fit` folds h into one even polynomial by index: a fit on h's
range, in the variable T_2(x), has its coefficients placed on the even
indices, and `_expand` applies the same realizability rule as ChebPoly.
This module depends on numpy alone; h's phases live with its circuit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as C

BOUND_TOL = 1e-12

PARITIES = ("even", "odd", "none")


@lru_cache(maxsize=64)
def _max_abs(coeffs: tuple[float, ...]) -> float:
    """Exact max |p| on [-1, 1]: at the ends or where p' vanishes inside.
    Every root of p' is tried at its real part clipped to [-1, 1], so a
    real root that the eigenvalue solve moves off the axis still counts.
    An even p is sum c_2k T_k(T_2(x)) and T_2 maps [-1, 1] onto itself,
    so its max is that of the half-degree sum c_2k T_k.  Cached, since a
    fit and each ChebPoly built from it check the same coefficients."""
    if len(coeffs) > 1 and not any(coeffs[1::2]):
        return _max_abs(coeffs[::2])
    c = np.asarray(coeffs, dtype=float)
    stationary = np.clip(C.chebroots(C.chebder(c)).real, -1.0, 1.0)
    return float(np.abs(C.chebval(np.concatenate([[-1.0, 1.0], stationary]), c)).max())


@dataclass(frozen=True)
class ChebPoly:
    """Chebyshev-basis polynomial on [-1, 1] with |p| <= 1 there.

    ``scale`` is the positive divisor already applied: the represented
    approximation to the original target is scale * p(x)."""

    coeffs: tuple[float, ...]
    parity: str = "none"
    scale: float = 1.0

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs:
            raise ValueError("empty coefficient list")
        if self.parity not in PARITIES:
            raise ValueError(f"parity must be one of {PARITIES}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        start = 1 if self.parity == "even" else 0
        if self.parity in ("even", "odd"):
            if any(abs(c) > 1e-12 for c in coeffs[start::2]):
                raise ValueError(f"nonzero off-parity coefficient for {self.parity}")
        if _max_abs(coeffs) > 1.0 + BOUND_TOL:
            raise ValueError("polynomial exceeds 1 in magnitude on [-1, 1]")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        """Clenshaw evaluation at x in [-1, 1]."""
        arr = np.asarray(x, dtype=float)
        if np.any(np.abs(arr) > 1 + 1e-12):
            raise ValueError("argument outside [-1, 1]")
        return C.chebval(arr, self.coeffs)

    def to_json(self) -> str:
        return json.dumps(
            {"parity": self.parity, "scale": self.scale, "cheb_coeffs": list(self.coeffs)}
        )

    @classmethod
    def from_json(cls, text: str) -> "ChebPoly":
        d = json.loads(text)
        return cls(tuple(d["cheb_coeffs"]), d["parity"], d["scale"])


def _expand(coeffs: np.ndarray, parity: str, scale: float) -> ChebPoly:
    """Global-basis coefficients as a ChebPoly: the off-parity ones zeroed,
    and a max |p| that ChebPoly would reject (above 1 + BOUND_TOL) folded
    into the scale, so the stored polynomial stays realizable."""
    if parity in ("even", "odd"):
        coeffs[(0 if parity == "odd" else 1)::2] = 0.0
    m = _max_abs(tuple(coeffs))
    bump = m * (1.0 + 10 * BOUND_TOL) if m > 1.0 + BOUND_TOL else 1.0
    return ChebPoly(tuple(coeffs / bump), parity, scale * bump)


# -- target functions ---------------------------------------------------


@dataclass(frozen=True)
class TargetFunction:
    """Closed-form scalar target with its natural approximation domain."""

    fn: Callable[[np.ndarray], np.ndarray]
    domain: tuple[float, float]

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def inverse(kappa: float) -> TargetFunction:
    """1/x on [1/kappa, 1] (scaling applied separately)."""
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    return TargetFunction(lambda x: 1.0 / x, (1.0 / kappa, 1.0))


def cos_sqrt(t: float, eta: float) -> TargetFunction:
    """sqrt((cos(t x) + eta) / 2), real part carrier for time series."""
    if eta < 1:
        raise ValueError("eta must be >= 1")
    return TargetFunction(lambda x: np.sqrt((np.cos(t * x) + eta) / 2.0), (0.0, 1.0))


def sin_sqrt(t: float, eta: float) -> TargetFunction:
    """sqrt((sin(t x) + eta) / 2), imaginary part carrier for time series."""
    if eta < 1:
        raise ValueError("eta must be >= 1")
    return TargetFunction(lambda x: np.sqrt((np.sin(t * x) + eta) / 2.0), (0.0, 1.0))


def lorentzian_sqrt(eta: float, E: float) -> TargetFunction:
    """sqrt(eta^2 / ((x - E)^2 + eta^2)), spectral-measure carrier."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return TargetFunction(lambda x: np.sqrt(eta**2 / ((x - E) ** 2 + eta**2)), (0.0, 1.0))


def gibbs(beta: float) -> TargetFunction:
    """exp(-beta x / 2), imaginary-time half-evolution weight."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    return TargetFunction(lambda x: np.exp(-beta * x / 2.0), (0.0, 1.0))


def odd_gibbs(beta: float) -> TargetFunction:
    """x exp(-beta x^2 / 2), odd on [-1, 1]."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    return TargetFunction(lambda x: x * np.exp(-beta * x**2 / 2.0), (-1.0, 1.0))


# -- scaling ------------------------------------------------------------

DEFAULT_MARGIN = 1e-2


def apply_scaling(
    t: Callable, interval: tuple[float, float], margin: float = DEFAULT_MARGIN
) -> tuple[Callable, float]:
    """Divide the target by (1 + margin) times its grid max on the interval.

    Returns (scaled evaluator, scale factor); the scaled target stays
    strictly below 1 in magnitude."""
    a, b = interval
    xs = np.linspace(a, b, 2001)
    vals = np.abs(np.asarray(t(xs), dtype=float))
    if not np.all(np.isfinite(vals)):
        raise ValueError("target unbounded or undefined on the interval")
    scale = float(vals.max()) * (1.0 + margin)
    return (lambda x, _s=scale: np.asarray(t(x)) / _s), scale


# -- Remez minimax fitting ----------------------------------------------

REMEZ_MAX_ITER = 100

REMEZ_GRID = 4000


class RemezError(RuntimeError):
    pass


def _to_unit(y, interval: tuple[float, float]):
    """Map [a, b] onto [-1, 1]."""
    a, b = interval
    return (2 * np.asarray(y, dtype=float) - (a + b)) / (b - a)


def _unit_weight(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _remez_core(f: Callable, w: Callable, degree: int,
                interval: tuple[float, float], widen: bool = True) -> tuple[np.ndarray, float]:
    """Best weighted approximation min max |w(x) p(x) - f(x)| on [a, b].

    p is returned as Chebyshev coefficients on the mapped interval.  The
    weight w must be positive on the interval (w = 1 for plain fitting).
    Multi-point exchange on a Chebyshev-spaced grid (Pachon and Trefethen,
    BIT 49, 2009): each iteration levels the error on the references, then
    takes the largest error of every run of one sign and keeps degree + 2
    consecutive ones, dropping the smaller end, so the references alternate
    in sign by construction.  Returns the iterate with the smallest grid
    error, and as its error the sup found by refining each run's extremum
    between its grid neighbours.  A fit that does not level is retried
    once at degree + 1 (`widen`), and kept if its top coefficient is 0."""
    a, b = interval
    if a >= b:
        raise ValueError(f"empty fit interval [{a}, {b}]")
    if degree < 0:
        raise ValueError("fit degree must be >= 0")
    npts = degree + 2

    def to_ab(u):
        return 0.5 * (b - a) * u + 0.5 * (b + a)

    def error(coeffs, x):
        wp = np.asarray(w(x), float) * C.chebval(_to_unit(x, interval), coeffs)
        return wp - np.asarray(f(x), float)

    # initial references: Chebyshev extrema mapped to [a, b]
    refs = to_ab(np.cos(np.pi * np.arange(npts) / (npts - 1))[::-1])
    if np.any(np.asarray(w(refs), dtype=float) == 0.0):
        # a zero-weight reference (w vanishing at an endpoint) forces the
        # leveled error to 0 there and stalls the exchange; fall back to
        # interior Chebyshev roots, where the weight is positive
        refs = to_ab(np.cos((2 * np.arange(npts) + 1) * np.pi / (2 * npts))[::-1])
    grid = to_ab(np.cos(np.linspace(np.pi, 0.0, REMEZ_GRID)))
    xg, wg, fg = _to_unit(grid, interval), np.asarray(w(grid), float), np.asarray(f(grid), float)
    best = None
    for _ in range(REMEZ_MAX_ITER):
        V = C.chebvander(_to_unit(refs, interval), degree) * np.asarray(w(refs), float)[:, None]
        levelled = np.hstack([V, ((-1.0) ** np.arange(npts))[:, None]])
        sol = np.linalg.solve(levelled, np.asarray(f(refs), float))
        coeffs, E = sol[:-1], sol[-1]
        err = wg * C.chebval(xg, coeffs) - fg
        starts = np.flatnonzero(np.diff(err >= 0, prepend=err[0] < 0))
        stops = np.append(starts[1:], grid.size)
        peaks = np.array([s + int(np.abs(err[s:e]).argmax()) for s, e in zip(starts, stops)])
        emax = float(np.abs(err).max())
        if best is None or emax < best[0]:
            best = (emax, E, coeffs, peaks)
        while peaks.size > npts:
            peaks = peaks[1:] if abs(err[peaks[0]]) < abs(err[peaks[-1]]) else peaks[:-1]
        # stop when levelled (relative test), at a fixed point, or short of runs
        if (emax - abs(E) <= 1e-12 * emax or peaks.size < npts
                or np.array_equal(grid[peaks], refs)):
            break
        refs = grid[peaks]
    emax, E, coeffs, peaks = best
    # the scaled targets stay below 1, so 1e-12 is a round-off floor
    if emax > 2.0 * abs(E) + 1e-12:
        # a target even about the interval's midpoint has an even best fit,
        # which at even degree is also the best of degree + 1; the symmetric
        # start references level its error to E = 0 at even degree only
        if widen:
            wide, err = _remez_core(f, w, degree + 1, interval, widen=False)
            if abs(wide[-1]) <= 1e-12:
                return wide[:-1], err + abs(wide[-1])
        raise RemezError(f"no convergence (E={E:.3e}, max={emax:.3e})")
    lo, hi = grid[np.maximum(peaks - 1, 0)], grid[np.minimum(peaks + 1, grid.size - 1)]
    for _ in range(4):
        xs = np.linspace(lo, hi, 17, axis=1)
        e = np.abs(error(coeffs, xs.ravel())).reshape(xs.shape)
        emax = max(emax, float(e.max()))
        centre, step = xs[np.arange(peaks.size), e.argmax(axis=1)], (hi - lo) / 16
        lo, hi = np.maximum(centre - step, a), np.minimum(centre + step, b)
    return coeffs, emax


def fit_scaled(
    t: TargetFunction,
    degree: int,
    parity: str = "none",
    interval: tuple[float, float] | None = None,
) -> tuple[ChebPoly, float]:
    """Best degree-``degree`` fit of t scaled below 1, on the interval (t's domain by default).

    For parity 'even' the fit runs on the squared variable: an even p of
    degree 2k with p(x) = q(x^2) where q is the plain minimax fit of
    t(sqrt(u)).  For 'odd', p(x) = x q(x^2) and the fit is weighted by
    sqrt(u).  The polynomial keeps the target's values only on the fit
    interval (and its mirror image for definite parity), so a parity fit
    on an interval symmetric about 0 fits its right half: its sup error
    there is the same.  Returns (poly, err): poly.scale is the total
    divisor (target scaling times any overshoot correction), err the sup
    error of poly.scale * poly versus t on the fit interval."""
    if interval is None:
        interval = t.domain
    scaled, alpha = apply_scaling(t, interval)
    a, b = interval
    if parity in ("even", "odd") and a == -b:
        a = 0.0
    if parity == "none":
        local, err = _remez_core(scaled, _unit_weight, degree, (a, b))

        def fit(x):
            return C.chebval(_to_unit(x, (a, b)), local)
    elif parity in ("even", "odd"):
        odd = parity == "odd"
        if degree % 2 != odd or a < 0:
            raise ValueError(f"{parity} fit needs {parity} degree and interval in [0, 1]")
        # an odd p has p(0) = 0, so from 0 its error is at least |t(0)|, and
        # the sqrt(u) weight cannot level it; 1e-12 is the round-off floor
        if odd and a == 0.0 and abs(float(scaled(0.0))) > 1e-12:
            raise ValueError("an odd fit on an interval from 0 needs a target that "
                             "vanishes at 0, where every odd polynomial is 0")
        ua, ub = a * a, b * b
        local, err = _remez_core(
            lambda u: scaled(np.sqrt(np.asarray(u, float))),
            (lambda u: np.sqrt(np.asarray(u, float))) if odd else _unit_weight,
            degree // 2,
            (ua, ub),
        )

        def fit(x):
            return (x if odd else 1.0) * C.chebval(_to_unit(x**2, (ua, ub)), local)
    else:
        raise ValueError(f"parity must be one of {PARITIES}")
    # the fit can poke above 1 outside the fit interval
    return _expand(C.chebinterpolate(fit, degree), parity, alpha), float(err * alpha)


@dataclass(frozen=True)
class IntervalFit:
    """A minimax fit kept in its own interval's Chebyshev basis.

    Unlike ChebPoly, no bound is imposed outside the fit interval; this
    is the right carrier for a function of a matrix whose spectrum stays
    inside the interval, where the polynomial is only ever evaluated
    there.  scale * p approximates the original target within err."""

    coeffs: tuple[float, ...]
    interval: tuple[float, float]
    scale: float
    err: float

    def __call__(self, y):
        return C.chebval(_to_unit(y, self.interval), self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def fit_on_interval(
    t: TargetFunction | Callable,
    degree: int,
    interval: tuple[float, float],
    margin: float = DEFAULT_MARGIN,
) -> IntervalFit:
    """Scale then minimax-fit the target on the interval, kept local.

    The scaled fit is clipped to magnitude 1 on the interval by
    construction (target below 1/(1+margin) plus a smaller fit error)."""
    scaled, alpha = apply_scaling(t, interval, margin)
    local, err = _remez_core(scaled, _unit_weight, degree, interval)
    return IntervalFit(tuple(local), interval, alpha, float(err * alpha))


def project_on_interval(
    t: TargetFunction | Callable,
    degree: int,
    interval: tuple[float, float],
    scale: float = 1.0,
) -> IntervalFit:
    """Truncated Chebyshev expansion on the interval with an explicit scale.

    The error field is the sup-norm deviation of scale * p from the
    unscaled target, in the target's units, measured on a dense grid."""
    a, b = interval
    # interpolation at 2 (degree + 1) first-kind nodes, truncated: aliasing error only
    local = C.chebinterpolate(lambda u: np.asarray(t(0.5 * (b - a) * u + 0.5 * (b + a))) / scale,
                              2 * degree + 1)[: degree + 1]
    xs = np.linspace(a, b, 4001)
    err = float(np.abs(scale * C.chebval(_to_unit(xs, interval), local) - np.asarray(t(xs))).max())
    return IntervalFit(tuple(local), interval, scale, err)


# -- the quadratic h ----------------------------------------------------


@dataclass(frozen=True)
class QuadraticH:
    """The quadratic h(x) = a2 x^2 + a0.

    Constraints |a0| <= 1 and |a0 + a2| <= 1 keep |h| <= 1 on [-1, 1]."""

    a2: float
    a0: float

    def __post_init__(self):
        tol = 1e-9
        if abs(self.a0) > 1 + tol or abs(self.a0 + self.a2) > 1 + tol:
            raise ValueError("|a0| and |a0 + a2| must be <= 1")

    def __call__(self, x):
        return self.a2 * np.asarray(x) ** 2 + self.a0


def quadratic_for_condition(kappa: float) -> QuadraticH:
    """h_kappa(x) = (1 - 1/kappa) x^2 + 1/kappa, condition bound kappa."""
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    return QuadraticH(a2=1.0 - 1.0 / kappa, a0=1.0 / kappa)


def condition_bound(q: QuadraticH) -> float:
    """Upper bound on the condition number of h(A): (a0 + a2) / a0.

    Valid when h is positive and increasing on [0, 1], i.e. a0 > 0 and
    a2 >= 0 (h ranges over [a0, a0 + a2] as x^2 sweeps [0, 1])."""
    if q.a0 <= 0 or q.a2 < 0:
        raise ValueError("condition bound needs a0 > 0 and a2 >= 0")
    return (q.a0 + q.a2) / q.a0


def compose_fit(g: IntervalFit, q: QuadraticH) -> ChebPoly:
    """Even composite f(x) = g_scaled-fit(a2 x^2 + a0) as a global ChebPoly.

    g must be fitted on exactly h's range [a0, a0 + a2].  Its unit
    variable is then 2 x^2 - 1 = T_2(x), and T_k(T_2) = T_2k, so f's
    Chebyshev coefficients are g's on the even indices."""
    a, b = g.interval
    if abs(a - q.a0) > 1e-12 or abs(b - q.a0 - q.a2) > 1e-12:
        raise ValueError("quadratic range is not the fit interval")
    coeffs = np.zeros(2 * g.degree + 1)
    coeffs[::2] = g.coeffs
    return _expand(coeffs, "even", g.scale)
