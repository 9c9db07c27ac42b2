"""Phase-factor finding for signal-processing circuits.

A length d+1 real sequence Phi parameterizes the SU(2) product
U_Phi(x) = e^{i phi_0 Z} prod_{j=1..d} [e^{i arccos(x) X} e^{i phi_j Z}],
whose upper-left real part is a degree-d polynomial in x with the parity
of d.  Given a target polynomial, symmetric phases are found by damped
Newton iteration on the square system of residuals at Chebyshev nodes,
starting from the flat sequence, one square solve per step, until L
reaches its round-off floor.  Each SU(2) product is carried as its first
row (a, b); one evaluation makes a single chunked log-depth pass over
the prefix products and reads every suffix off them by unitarity, and
the symmetric Jacobian folds by slicing.  The
optimization ("phi") and circuit ("varphi") phase conventions differ by
fixed shifts (pi/4 at the ends, pi/2 inside).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebpoly import ChebPoly

CONVENTIONS = ("phi", "varphi")

SYM_TOL = 1e-12


@dataclass(frozen=True)
class PhaseFactors:
    values: tuple[float, ...]
    convention: str = "phi"
    symmetric: bool = False

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("need at least one phase")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")
        if self.symmetric:
            for a, b in zip(vals, vals[::-1]):
                if abs(a - b) > SYM_TOL:
                    raise ValueError("symmetric flag set but sequence is not")

    @property
    def degree(self) -> int:
        return len(self.values) - 1


def u_phi(x: float, phases: PhaseFactors) -> np.ndarray:
    """The 2x2 product U_Phi(x) in the phi convention."""
    if phases.convention != "phi":
        raise ValueError("u_phi takes phi-convention phases")
    if abs(x) > 1:
        raise ValueError("x outside [-1, 1]")
    th = math.acos(x)
    c, s = math.cos(th), math.sin(th)
    W = np.array([[c, 1j * s], [1j * s, c]])
    v = phases.values
    U = np.diag([np.exp(1j * v[0]), np.exp(-1j * v[0])])
    for p in v[1:]:
        U = U @ W @ np.diag([np.exp(1j * p), np.exp(-1j * p)])
    return U


def qsp_value(x, phases: PhaseFactors):
    """Re<0|U_Phi(x)|0>, the polynomial the phases encode (vectorized)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    vals = np.array([u_phi(xi, phases)[0, 0].real for xi in xs])
    return vals if np.ndim(x) else float(vals[0])


def _nodes(d: int) -> np.ndarray:
    """Positive Chebyshev roots x_j = cos((2j-1) pi / (4 d~)), j = 1..d~."""
    dt = (d + 1 + 1) // 2
    j = np.arange(1, dt + 1)
    return np.cos((2 * j - 1) * np.pi / (4 * dt))


def _mul(a1, b1, a2, b2):
    """First row of [[a1, b1], [-b1*, a1*]] @ [[a2, b2], [-b2*, a2*]]."""
    return a1 * a2 - b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


# rows per chunk of the prefix scan: one scan over all d + 1 rows is
# faster at low degree but moves far more memory at high degree
SCAN_ROWS = 32


def _residuals_and_derivs(values: np.ndarray, xs: np.ndarray, targets: np.ndarray):
    """Residuals Re U00 - target on the nodes, and d(Re U00)/d phi_k.

    Prefix products L_k = e^{i phi_0 Z} W e^{i phi_1 Z} ... W e^{i phi_k Z}
    are kept as first rows (a, b) of shape (d+1, n_nodes); the factor
    W e^{i phi Z} has first row (x e^{i phi}, i sqrt(1-x^2) e^{-i phi}).
    They come from one scan in chunks of SCAN_ROWS rows: a chunk's first
    row takes the previous chunk's last prefix on its left, then log2
    steps replace row i >= s by (row i - s) @ (row i), s = 1, 2, 4, ...
    The suffix R_k (the remaining right factors) needs no second pass:
    U = L_d = L_k R_k, so R_k = L_k^dag U, whose first row is
    (a_R, b_R) = (a* A + b B*, a* B - b A*) for U's first row (A, B).
    The derivatives have shape (d+1, n_nodes): d(Re U00)/d phi_k =
    Re[i (L_k Z R_k)_00] = -Im(a a_R + b b_R*), which with R_k
    substituted is -Im[(|a|^2 - |b|^2) A + 2 a b B*]."""
    e = np.exp(1j * values)[:, None]
    a, b = xs * e, 1j * np.sqrt(1 - xs**2) * np.conj(e)
    a[0], b[0] = e[0], 0
    for lo in range(0, len(a), SCAN_ROWS):
        ca, cb = a[lo : lo + SCAN_ROWS], b[lo : lo + SCAN_ROWS]
        if lo:
            ca[0], cb[0] = _mul(a[lo - 1], b[lo - 1], ca[0], cb[0])
        s = 1
        while s < len(ca):
            ca[s:], cb[s:] = _mul(ca[:-s], cb[:-s], ca[s:], cb[s:])
            s *= 2
    A, B = a[-1], b[-1]
    res = A.real - targets
    gain = a.real**2 + a.imag**2 - b.real**2 - b.imag**2  # |a|^2 - |b|^2
    return res, -(gain * A.imag + 2 * (a * b * np.conj(B)).imag)


def objective(phases: PhaseFactors, f: ChebPoly) -> float:
    """Mean squared residual of Re<0|U_Phi|0> against f on the node set."""
    _check_pair(phases, f)
    xs = _nodes(phases.degree)
    res, _ = _residuals_and_derivs(np.asarray(phases.values), xs, f(xs))
    return float(np.mean(res**2))


def gradient(phases: PhaseFactors, f: ChebPoly) -> np.ndarray:
    """Analytic gradient of the objective with respect to each phase."""
    _check_pair(phases, f)
    xs = _nodes(phases.degree)
    res, derivs = _residuals_and_derivs(np.asarray(phases.values), xs, f(xs))
    return (2.0 / len(xs)) * derivs @ res


def _check_pair(phases: PhaseFactors, f: ChebPoly):
    if phases.convention != "phi":
        raise ValueError("objective works in the phi convention")
    d = phases.degree
    if f.degree != d:
        raise ValueError(f"need len(phases) = deg(f)+1, got {d + 1} vs {f.degree}")
    want = "even" if d % 2 == 0 else "odd"
    if f.parity != want:
        raise ValueError(f"degree-{d} phases need {want} target parity")


CONVERGED_L = 1e-24

# Newton stops below NEWTON_L (machine precision), when no step length
# down to MIN_STEP lowers L, after NEWTON_ITERS iterations, or when a step
# below CONVERGED_L lowers L by less than a factor FLOOR_FALL: at high
# degree L's round-off floor lies above NEWTON_L, and steps past it only
# move round-off
NEWTON_L = 1e-31

MIN_STEP = 1e-4

NEWTON_ITERS = 100

FLOOR_FALL = 10.0


def optimize(f: ChebPoly) -> tuple[PhaseFactors, float]:
    """Symmetric phase factors reproducing the polynomial f.

    Damped Newton on the symmetric system: the free phases are the first
    half of the sequence, the rest their mirror image, with one Chebyshev
    node per free phase; the Jacobian folds onto the free half by adding
    mirrored rows (the middle one once at even d), so it is square.  From
    the flat start (pi/4, 0, ..., 0, pi/4) each iteration solves J step =
    res (one square `np.linalg.solve`) and halves the step until the mean
    squared residual L drops.  It stops at the round-off floor, once an
    accepted step leaves L below CONVERGED_L but lowers it by less than a
    factor FLOOR_FALL.  Returns (phases, L); raises only on malformed
    input.  A target with no phases (|f| > 1 somewhere on [-1, 1]) or a
    stall, a singular J among them, is reported via L, which then
    exceeds CONVERGED_L."""
    d = f.degree
    if d < 1:
        raise ValueError("need degree >= 1")
    xs = _nodes(d)
    targets = f(xs)
    half = len(xs)

    def full(v):
        return np.concatenate([v, v[: d + 1 - half][::-1]])

    def state(v):
        res, derivs = _residuals_and_derivs(full(v), xs, targets)
        folded = derivs[:half] + derivs[::-1][:half]
        if d % 2 == 0:
            folded[-1] /= 2
        return v, res, folded.T, float(np.mean(res**2))

    v0 = np.zeros(half)
    v0[0] = np.pi / 4
    v, res, J, L = state(v0)
    for _ in range(NEWTON_ITERS):
        if L < NEWTON_L:
            break
        try:
            step = np.linalg.solve(J, res)
        except np.linalg.LinAlgError:  # singular J: a stall
            break
        t = 1.0
        while t >= MIN_STEP:
            trial = state(v - t * step)
            if trial[3] < L:
                break
            t /= 2
        else:
            break
        prev = L
        v, res, J, L = trial
        if L < CONVERGED_L and L * FLOOR_FALL > prev:
            break
    phases = PhaseFactors(tuple(full(v)), "phi", symmetric=True)
    return phases, L


def _shift(d: int) -> np.ndarray:
    """varphi - phi for a degree-d sequence: pi/2 inside, pi/4 at both
    ends, and -d*pi/2 more on the first phase, which cancels the global
    (-i)^d the pi/2 bookkeeping leaves on the assembled circuit.  Without
    that term the circuit block comes out as (-i)^d times the encoded
    polynomial's transform (a sign flip for d = 2 mod 4, an
    imaginary-part swap for odd d)."""
    if d < 1:
        raise ValueError("need length >= 2")
    s = np.full(d + 1, np.pi / 2)
    s[0] = s[-1] = np.pi / 4
    s[0] -= d * np.pi / 2
    return s


def to_varphi(phases: PhaseFactors) -> PhaseFactors:
    """Shift to the circuit convention (see _shift)."""
    if phases.convention != "phi":
        raise ValueError("expected phi convention")
    out = np.array(phases.values) + _shift(phases.degree)
    return PhaseFactors(tuple(out), "varphi", symmetric=False)


def to_phi(phases: PhaseFactors) -> PhaseFactors:
    """Inverse of to_varphi."""
    if phases.convention != "varphi":
        raise ValueError("expected varphi convention")
    out = np.array(phases.values) - _shift(phases.degree)
    sym = all(abs(a - b) <= SYM_TOL for a, b in zip(out, out[::-1]))
    return PhaseFactors(tuple(out), "phi", sym)
