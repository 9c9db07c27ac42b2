"""Dense classical references the circuit pipeline is checked against.

Everything here is brute-force linear algebra on the encoded matrices:
singular-value transforms, success probabilities, Hamiltonian time
series, broadened spectral measures, and thermal energies.
"""

from __future__ import annotations

import numpy as np

from .chebpoly import ChebPoly
from .statevector import UNITARY_QUBIT_CAP, StateVector

SIGMA_TOL = 1e-8

HERMITIAN_TOL = 1e-10


def _check_matrix(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("need a square matrix")
    if A.shape[0] > 2 ** (UNITARY_QUBIT_CAP - 1):  # the system register of the largest U_A
        raise ValueError(f"dimension {A.shape[0]} exceeds cap {2 ** (UNITARY_QUBIT_CAP - 1)}")
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite entries")
    return A


def matfun_right(A: np.ndarray, f: ChebPoly) -> np.ndarray:
    """V f(Sigma) V^dag for A = W Sigma V^dag (right singular transform)."""
    A = _check_matrix(A)
    _, s, Vh = np.linalg.svd(A)
    if s.size and s[0] > 1 + SIGMA_TOL:
        raise ValueError(f"largest singular value {s[0]} exceeds 1")
    fs = f(np.clip(s, 0.0, 1.0))
    return Vh.conj().T @ (fs[:, None] * Vh)


def exact_success_prob(A: np.ndarray, f: ChebPoly, b: StateVector) -> float:
    """|| f|>(A) |b> ||^2, the all-ancillas-zero probability."""
    v = matfun_right(A, f) @ b.amplitudes
    return float(np.vdot(v, v).real)


def _check_hermitian(H: np.ndarray) -> np.ndarray:
    H = _check_matrix(H)
    if np.abs(H - H.conj().T).max() > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian")
    return H


def _spectrum(H: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of Hermitian H and psi's weights |V^dag psi|^2 on its
    eigenvectors."""
    lam, V = np.linalg.eigh(_check_hermitian(H))
    return lam, np.abs(V.conj().T @ np.asarray(psi, dtype=complex)) ** 2


def exact_time_series(H: np.ndarray, psi: np.ndarray, t):
    """<psi| exp(i H t) |psi> via one eigendecomposition: a complex at one
    time t, an array at each of a grid of times."""
    lam, w = _spectrum(H, psi)
    s = np.sum(w * np.exp(1j * lam * np.asarray(t, dtype=float)[..., None]), axis=-1)
    return complex(s) if s.ndim == 0 else s


def exact_spectral_measure(H: np.ndarray, psi: np.ndarray, E, eta: float):
    """Lorentzian-broadened local density of states via one eigendecomposition:
    a float at one energy E, an array at each of a grid of energies."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    lam, w = _spectrum(H, psi)
    E = np.asarray(E, dtype=float)[..., None]
    s = (eta / np.pi) * np.sum(w / ((lam - E) ** 2 + eta**2), axis=-1)
    return float(s) if s.ndim == 0 else s


def exact_thermal_energy(H: np.ndarray, beta: float) -> float:
    """Tr[H exp(-beta H)] / Tr[exp(-beta H)] for Hermitian PSD H."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    H = _check_hermitian(H)
    lam = np.linalg.eigvalsh(H)
    w = np.exp(-beta * (lam - lam.min()))  # shift for stability
    return float(np.sum(lam * w) / np.sum(w))
