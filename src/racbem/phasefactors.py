"""Phase-factor finding for signal-processing circuits.

A length d+1 real sequence Phi parameterizes the SU(2) product
U_Phi(x) = e^{i phi_0 Z} prod_{j=1..d} [e^{i arccos(x) X} e^{i phi_j Z}],
whose upper-left real part is a degree-d polynomial in x with the parity
of d.  Given a target polynomial, symmetric phases are found by damped
Newton iteration on the square system of residuals at Chebyshev nodes,
starting from the flat sequence.  Two phase conventions exist: the optimization one
("phi") and the circuit one ("varphi"); they differ by fixed shifts of
pi/4 at the ends and pi/2 inside.
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


def _stacks(values: np.ndarray, xs: np.ndarray):
    """Prefix/suffix 2x2 product stacks over all nodes at once.

    Returns (prefix, suffix) with prefix[k] = e^{i phi_0 Z} W e^{i phi_1 Z}
    ... W e^{i phi_k Z} and suffix[k] = the remaining right factors, each
    of shape (n_nodes, 2, 2)."""
    d = len(values) - 1
    n = len(xs)
    th = np.arccos(xs)
    c, s = np.cos(th), np.sin(th)
    W = np.empty((n, 2, 2), dtype=complex)
    W[:, 0, 0] = c
    W[:, 1, 1] = c
    W[:, 0, 1] = 1j * s
    W[:, 1, 0] = 1j * s

    def ez(p):
        E = np.zeros((2, 2), dtype=complex)
        E[0, 0] = np.exp(1j * p)
        E[1, 1] = np.exp(-1j * p)
        return E

    prefix = np.empty((d + 1, n, 2, 2), dtype=complex)
    cur = np.broadcast_to(ez(values[0]), (n, 2, 2)).copy()
    prefix[0] = cur
    for k in range(1, d + 1):
        cur = cur @ W @ ez(values[k])
        prefix[k] = cur
    suffix = np.empty((d + 1, n, 2, 2), dtype=complex)
    cur = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)).copy()
    suffix[d] = cur
    for k in range(d - 1, -1, -1):
        cur = (W @ ez(values[k + 1])) @ cur
        suffix[k] = cur
    return prefix, suffix


def _residuals_and_derivs(values: np.ndarray, xs: np.ndarray, targets: np.ndarray):
    """Residuals Re U00 - target on the nodes, and d(Re U00)/d phi_k.

    The derivatives have shape (d+1, n_nodes): d(Re U00)/d phi_k =
    Re[i (L_k Z R_k)_00] with L_k = prefix[k], R_k = suffix[k], and
    (L Z R)_00 = L00 R00 - L01 R10."""
    prefix, suffix = _stacks(values, xs)
    res = prefix[-1][:, 0, 0].real - targets
    zr = prefix[:, :, 0, 0] * suffix[:, :, 0, 0] - prefix[:, :, 0, 1] * suffix[:, :, 1, 0]
    return res, -zr.imag


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
# down to MIN_STEP lowers L, or after NEWTON_ITERS iterations
NEWTON_L = 1e-31

MIN_STEP = 1e-4

NEWTON_ITERS = 100


def optimize(f: ChebPoly) -> tuple[PhaseFactors, float]:
    """Symmetric phase factors reproducing the polynomial f.

    Damped Newton on the symmetric system: the free phases are the first
    half of the sequence (the rest mirrors them), one Chebyshev node per
    free phase, so the folded Jacobian is square.  From the flat start
    (pi/4, 0, ..., 0, pi/4) each iteration takes the least-squares step
    and halves it until the mean squared residual L drops.  Returns
    (phases, L); raises only on malformed input.  A target with no
    phases (|f| > 1 somewhere on [-1, 1]) or a stall is reported via L,
    which then exceeds CONVERGED_L."""
    d = f.degree
    if d < 1:
        raise ValueError("need degree >= 1")
    xs = _nodes(d)
    targets = f(xs)
    half = len(xs)
    # mirror[k, i] = 1 when full phase k is free phase i
    mirror = np.eye(half)[np.minimum(np.arange(d + 1), d - np.arange(d + 1))]

    def state(v):
        res, derivs = _residuals_and_derivs(mirror @ v, xs, targets)
        return v, res, derivs.T @ mirror, float(np.mean(res**2))

    v0 = np.zeros(half)
    v0[0] = np.pi / 4
    v, res, J, L = state(v0)
    for _ in range(NEWTON_ITERS):
        if L < NEWTON_L:
            break
        step = np.linalg.lstsq(J, res, rcond=None)[0]
        t = 1.0
        while t >= MIN_STEP:
            trial = state(v - t * step)
            if trial[3] < L:
                break
            t /= 2
        else:
            break
        v, res, J, L = trial
    phases = PhaseFactors(tuple(mirror @ v), "phi", symmetric=True)
    return phases, L


def to_varphi(phases: PhaseFactors) -> PhaseFactors:
    """Shift to the circuit convention.

    Interior phases shift by pi/2 and both ends by pi/4; the first phase
    additionally shifts by -d*pi/2, which cancels the global (-i)^d the
    pi/2 bookkeeping leaves on the assembled circuit.  Without that term
    the circuit block comes out as (-i)^d times the encoded polynomial's
    transform (a sign flip for d = 2 mod 4, an imaginary-part swap for
    odd d)."""
    if phases.convention != "phi":
        raise ValueError("expected phi convention")
    v = list(phases.values)
    if len(v) < 2:
        raise ValueError("need length >= 2")
    d = len(v) - 1
    out = (
        [v[0] + np.pi / 4 - d * np.pi / 2]
        + [p + np.pi / 2 for p in v[1:-1]]
        + [v[-1] + np.pi / 4]
    )
    return PhaseFactors(tuple(out), "varphi", symmetric=False)


def to_phi(phases: PhaseFactors) -> PhaseFactors:
    """Inverse of to_varphi."""
    if phases.convention != "varphi":
        raise ValueError("expected varphi convention")
    v = list(phases.values)
    if len(v) < 2:
        raise ValueError("need length >= 2")
    d = len(v) - 1
    out = (
        [v[0] - np.pi / 4 + d * np.pi / 2]
        + [p - np.pi / 2 for p in v[1:-1]]
        + [v[-1] - np.pi / 4]
    )
    sym = all(abs(a - b) <= SYM_TOL for a, b in zip(out, out[::-1]))
    return PhaseFactors(tuple(out), "phi", sym)
