"""End-to-end experiments: benchmark, linear solve, series, thermal average.

Every task generates a random block-encoding instance from a seed, builds
the polynomial-transform circuit for its target function, and reports a
measured success probability against the dense-linear-algebra reference.
"exact mode" (shots=0) evaluates success probabilities analytically from
the statevector; "sampled mode" draws shots, optionally through a noise
model scaled by sigma.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import gates as G
from .blockenc import (
    BlockEncoding,
    QuadraticH,
    extract_block,
    phases_for_quadratic,
    quadratic_for_condition,
)
from .chebpoly import (
    ChebPoly,
    IntervalFit,
    compose_fit,
    cos_sqrt,
    fit_on_interval,
    fit_scaled,
    gibbs,
    inverse,
    lorentzian_sqrt,
    odd_gibbs,
    sin_sqrt,
)
from .generator import (
    DEFAULT_GATE_SET,
    GeneratorConfig,
    default_depth,
    generate_block_encoding,
    linear_coupling_map,
)
from .noise import NoiseModel, coverage, sample_noisy_counts, scale as scale_noise
from .oracle import (
    exact_spectral_measure,
    exact_thermal_energy,
    exact_time_series,
)
from .phasefactors import CONVERGED_L, optimize, to_varphi
from .qsvt import QsvtCircuit, build
from .statevector import (
    StateVector,
    circuit_unitary,
    sample_counts,
    success_probability_exact,
)


def canonical_quadratic() -> QuadraticH:
    """h(x) = x^2, realized by the canonical phase pair."""
    phi0, phi1 = phases_for_quadratic(1.0, 0.0)
    return QuadraticH(a2=1.0, a0=0.0, phi0=phi0, phi1=phi1)


# -- reports ------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkReport:
    """One measured-vs-exact record; relative_error is derived, not stored
    independently, so it always matches the p fields."""

    task: str
    seed: int
    params: dict
    p_measured: float
    p_exact: float
    gate_counts: dict
    wall_time: float

    @property
    def relative_error(self) -> float:
        if self.p_exact == 0.0:
            return math.inf if self.p_measured != 0.0 else 0.0
        return abs(self.p_measured - self.p_exact) / self.p_exact

    def to_record(self) -> dict:
        return {
            "task": self.task,
            "seed": self.seed,
            "params": dict(self.params),
            "p_measured": self.p_measured,
            "p_exact": self.p_exact,
            "relative_error": self.relative_error,
            "gate_counts": dict(self.gate_counts),
            "wall_time": self.wall_time,
        }


def write_csv(reports: list[BenchmarkReport], path: str):
    """Flat CSV for plotting; params and gate counts become dotted columns."""
    rows = []
    for r in reports:
        rec = r.to_record()
        flat = {k: rec[k] for k in ("task", "seed", "p_measured", "p_exact", "relative_error", "wall_time")}
        for k, v in rec["params"].items():
            flat[f"params.{k}"] = v
        for k, v in rec["gate_counts"].items():
            flat[f"gates.{k}"] = v
        rows.append(flat)
    cols: list[str] = []
    for row in rows:
        for k in row:
            if k not in cols:
                cols.append(k)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=cols)
        w.writeheader()
        w.writerows(rows)


# -- shared plumbing ----------------------------------------------------


def generate_instance(
    n: int,
    seed: int,
    p_cnot: float = 0.5,
    depth: int | None = None,
    coupling=None,
) -> BlockEncoding:
    """Random 1-ancilla block-encoding on n system qubits."""
    if coupling is None:
        coupling = linear_coupling_map(n + 1)
    if depth is None:
        depth = default_depth(n)
    cfg = GeneratorConfig(coupling, DEFAULT_GATE_SET, p_cnot, depth, seed)
    return generate_block_encoding(cfg, n)


def _noisy(noise_model: NoiseModel | None, sigma: float) -> NoiseModel | None:
    """The model scaled by sigma, or None when sampling is ideal."""
    if noise_model is not None and sigma > 0.0:
        return scale_noise(noise_model, sigma)
    return None


def _noise_params(
    noise_model: NoiseModel | None, sigma: float, shots: int, circuits
) -> dict:
    """The `noise_coverage` report entry of a noisy sampled run (empty
    otherwise): the share of the sampled gates that have an error entry.
    At sigma > 0 a model that covers no gate, say one built for another
    register size, would pass an ideal run off as noisy, so it raises."""
    if shots == 0 or noise_model is None or sigma == 0.0:
        return {}
    share = coverage(noise_model, circuits)
    if share == 0.0:
        raise ValueError("the noise model has no error entry for any gate of the circuit")
    return {"noise_coverage": share}


def _sample(
    circuit: G.QuantumCircuit,
    shots: int,
    measured: list[int],
    rng: np.random.Generator,
    noise: NoiseModel | None,
    input_state: StateVector,
):
    """Counts on the measured qubits: drawn through the already-scaled
    noise model, or ideal Born sampling when noise is None."""
    if noise is not None:
        return sample_noisy_counts(circuit, noise, shots, measured, rng, input_state)
    return sample_counts(circuit, shots, measured, rng, input_state)


def measure_success(
    circuit: G.QuantumCircuit,
    m_ancilla: int,
    shots: int,
    rng: np.random.Generator | None,
    noise_model: NoiseModel | None = None,
    sigma: float = 0.0,
    input_state: StateVector | None = None,
) -> float:
    """P(all ancillas read 0): analytic when shots=0, else sampled."""
    if input_state is None:
        input_state = StateVector.zero(circuit.n_qubits)
    if shots == 0:
        return success_probability_exact(circuit, m_ancilla, input_state)
    if rng is None:
        raise ValueError("sampled mode needs an rng")
    counts = _sample(circuit, shots, list(range(m_ancilla)), rng,
                     _noisy(noise_model, sigma), input_state)
    return counts.counts.get("0" * m_ancilla, 0) / shots


def _qsvt_for(ua: BlockEncoding, f: ChebPoly, allow_odd: bool = False):
    """Phases for f, then the assembled circuit; returns (qsvt, residual)."""
    phases, residual = optimize(f)
    qc = build(ua, to_varphi(phases), allow_odd=allow_odd)
    return qc, residual


def _hermitian_matrix(ua: BlockEncoding, q: QuadraticH) -> np.ndarray:
    A = extract_block(ua)
    return q.a2 * (A.conj().T @ A) + q.a0 * np.eye(A.shape[0])


# -- RACBEM application benchmark ---------------------------------------


def racbem_benchmark(
    n: int,
    seed: int,
    shots: int = 8192,
    noise_model: NoiseModel | None = None,
    sigma: float = 0.0,
    p_cnot: float = 0.5,
    depth: int | None = None,
    coupling=None,
) -> BenchmarkReport:
    """Success probability of A|0^n> against its exact norm squared."""
    t0 = time.perf_counter()
    ua = generate_instance(n, seed, p_cnot, depth, coupling)
    A = extract_block(ua)
    p_exact = float(np.linalg.norm(A[:, 0]) ** 2)
    rng = np.random.default_rng(seed) if shots else None
    noise_params = _noise_params(noise_model, sigma, shots, [ua.circuit])
    p_measured = measure_success(ua.circuit, 1, shots, rng, noise_model, sigma)
    return BenchmarkReport(
        task="racbem-bench",
        seed=seed,
        params={"n": n, "shots": shots, "sigma": sigma, "p_cnot": p_cnot,
                "depth": ua.circuit.depth, **noise_params},
        p_measured=p_measured,
        p_exact=p_exact,
        gate_counts=G.gate_count(ua.circuit),
        wall_time=time.perf_counter() - t0,
    )


# -- linear-solve success-probability benchmark -------------------------


def linpack_run(
    kappa: float,
    n: int,
    d: int,
    seed: int,
    shots: int = 0,
    noise_model: NoiseModel | None = None,
    sigma: float = 0.0,
    p_cnot: float = 0.5,
    depth: int | None = None,
    coupling=None,
) -> BenchmarkReport:
    """Matrix-inversion circuit on a conditioned Hermitian instance.

    Pipeline: random U_A, quadratic h with condition bound kappa, minimax
    fit g of 1/x on [1/kappa, 1], even composite f = g(h(x)), phases,
    circuit; p is compared against ||alpha^-1 h(A)^-1 |0^n>||^2.  The
    report carries the error budget: eps (scaled fit error), the relative
    bound 2 kappa eps / (1 - kappa eps), and the success-probability
    floor (1/kappa - eps)^2."""
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    if d < 2 or d % 2:
        raise ValueError("need even degree d >= 2")
    t0 = time.perf_counter()
    ua = generate_instance(n, seed, p_cnot, depth, coupling)
    q = quadratic_for_condition(kappa)
    # margin 0 keeps alpha at kappa (plus fit overshoot only), so the
    # success floor (1/kappa - eps)^2 <= ||alpha^-1 h^-1 b||^2 holds for
    # every instance, including b aligned with the top eigenvector
    g = fit_on_interval(inverse(kappa), d // 2, margin=0.0)
    f = compose_fit(g, q)
    alpha = f.scale
    eps = g.err / alpha
    qc, residual = _qsvt_for(ua, f)
    rng = np.random.default_rng(seed) if shots else None
    noise_params = _noise_params(noise_model, sigma, shots, [qc.circuit])
    p_measured = measure_success(qc.circuit, 2, shots, rng, noise_model, sigma)
    hmat = _hermitian_matrix(ua, q)
    x = np.linalg.solve(hmat, StateVector.basis(n, 0).amplitudes)
    p_exact = float(np.linalg.norm(x / alpha) ** 2)
    bound_rel = 2 * kappa * eps / (1 - kappa * eps) if kappa * eps < 1 else math.inf
    bound_floor = (1 / kappa - eps) ** 2
    counts = G.gate_count(qc.circuit)
    return BenchmarkReport(
        task="linpack",
        seed=seed,
        params={
            "kappa": kappa, "n": n, "d": d, "shots": shots, "sigma": sigma,
            "p_cnot": p_cnot, "depth": ua.circuit.depth, "alpha": alpha,
            "epsilon": eps, "residual": residual,
            "converged": bool(residual <= CONVERGED_L),
            "relative_error_bound": bound_rel,
            "p_exact_floor": bound_floor,
            "p_exact_above_floor": bool(p_exact >= bound_floor),
            "gate_budget": qc.gate_budget, **noise_params,
        },
        p_measured=p_measured,
        p_exact=p_exact,
        gate_counts=counts,
        wall_time=time.perf_counter() - t0,
    )


# -- time series --------------------------------------------------------

# default per-point phase lengths and eta offsets for t = 1..10 (shallow
# profile; lengths are d+1 with d the even composite degree)
TS_LENGTHS_REAL = (3, 3, 5, 7, 7, 9, 9, 9, 11, 11)
TS_LENGTHS_IMAG = (3, 3, 5, 5, 5, 7, 7, 9, 9, 11)
TS_ETAS_REAL = (1.0, 1.0, 1.0, 1.5, 2.0, 1.5, 1.5, 1.5, 1.5, 1.5)
TS_ETAS_IMAG = (1.0, 1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5)


@dataclass(frozen=True)
class SeriesResult:
    """A grid of reconstructed values with their references and reports."""

    grid: tuple[float, ...]
    values: tuple[complex, ...]
    exact: tuple[complex, ...]
    reports: tuple[BenchmarkReport, ...] = field(repr=False)


def _series_part(
    ua: BlockEncoding,
    q: QuadraticH,
    target,
    degree: int,
    shots: int,
    rng,
    noise_model,
    sigma: float,
) -> tuple[float, QsvtCircuit, dict]:
    """One quadrature part: fit, build, measure.

    Returns (p_measured, circuit, report params: scale, fit error in
    target units, phase residual, its convergence flag and, when noisy,
    the noise coverage)."""
    g = fit_on_interval(target, degree // 2, (q.a0, q.a0 + q.a2))
    f = compose_fit(g, q)
    qc, residual = _qsvt_for(ua, f)
    params = {"scale": f.scale, "fit_error": g.err, "residual": residual,
              "converged": bool(residual <= CONVERGED_L),
              **_noise_params(noise_model, sigma, shots, [qc.circuit])}
    p = measure_success(qc.circuit, 2, shots, rng, noise_model, sigma)
    return p, qc, params


def time_series_run(
    n: int,
    seed: int,
    ts: tuple[float, ...] = tuple(range(1, 11)),
    lengths_real: tuple[int, ...] = TS_LENGTHS_REAL,
    lengths_imag: tuple[int, ...] = TS_LENGTHS_IMAG,
    etas_real: tuple[float, ...] = TS_ETAS_REAL,
    etas_imag: tuple[float, ...] = TS_ETAS_IMAG,
    shots: int = 0,
    noise_model: NoiseModel | None = None,
    sigma: float = 0.0,
    p_cnot: float = 0.5,
    depth: int | None = None,
    coupling=None,
    ua: BlockEncoding | None = None,
) -> SeriesResult:
    """<psi| exp(i h(A) t) |psi> on a t grid, one circuit pair per point.

    Real and imaginary parts come from separate success probabilities:
    s(t) = 2 sc^2 pc + 2i ss^2 ps - eta_c - i eta_s, where the carriers
    are sqrt((cos(yt) + eta)/2) and sqrt((sin(yt) + eta)/2) composed with
    the canonical quadratic.  eta >= 1 keeps the carriers real."""
    if not len(ts) == len(lengths_real) == len(lengths_imag) == len(etas_real) == len(etas_imag):
        raise ValueError("grid and per-point parameter lists must align")
    if any(e < 1.0 for e in etas_real + etas_imag):
        raise ValueError("eta must be >= 1 at every point")
    q = canonical_quadratic()
    if ua is None:
        ua = generate_instance(n, seed, p_cnot, depth, coupling)
    hmat = _hermitian_matrix(ua, q)
    psi = StateVector.basis(n, 0).amplitudes
    rng = np.random.default_rng(seed) if shots else None
    values, exact, reports = [], [], []
    for t, dr, di, er, ei in zip(ts, lengths_real, lengths_imag, etas_real, etas_imag):
        t0 = time.perf_counter()
        pc, qc_c, par_c = _series_part(
            ua, q, cos_sqrt(t, er), dr - 1, shots, rng, noise_model, sigma
        )
        ps, qc_s, par_s = _series_part(
            ua, q, sin_sqrt(t, ei), di - 1, shots, rng, noise_model, sigma
        )
        s = complex(2 * par_c["scale"]**2 * pc - er, 2 * par_s["scale"]**2 * ps - ei)
        s_ref = exact_time_series(hmat, psi, t)
        values.append(s)
        exact.append(s_ref)
        wall = time.perf_counter() - t0
        for part, p, qc, par, eta, dd, ref in (
            ("real", pc, qc_c, par_c, er, dr, (s_ref.real + er) / 2),
            ("imag", ps, qc_s, par_s, ei, di, (s_ref.imag + ei) / 2),
        ):
            reports.append(
                BenchmarkReport(
                    task=f"timeseries-{part}",
                    seed=seed,
                    params={"n": n, "t": t, "eta": eta, "length": dd,
                            **par, "shots": shots, "sigma": sigma},
                    p_measured=p,
                    p_exact=ref / par["scale"]**2,
                    gate_counts=G.gate_count(qc.circuit),
                    wall_time=wall / 2,
                )
            )
    return SeriesResult(tuple(ts), tuple(values), tuple(exact), tuple(reports))


# -- spectral measure ---------------------------------------------------

DEFAULT_BROADENING = 0.2


def spectral_run(
    n: int,
    seed: int,
    energies: tuple[float, ...] = tuple(i / 10 for i in range(11)),
    eta: float = DEFAULT_BROADENING,
    lengths: tuple[int, ...] | int = 11,
    shots: int = 0,
    noise_model: NoiseModel | None = None,
    sigma: float = 0.0,
    p_cnot: float = 0.5,
    depth: int | None = None,
    coupling=None,
    ua: BlockEncoding | None = None,
) -> SeriesResult:
    """Broadened local density of states s_eta(E) on an energy grid.

    Per point: f = (scaled sqrt(eta^2/((y-E)^2+eta^2))) composed with the
    canonical quadratic; s = scale^2 p / (eta pi).  One phase length per
    point, or a single length reused across the grid."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    if isinstance(lengths, int):
        lengths = (lengths,) * len(energies)
    if len(lengths) != len(energies):
        raise ValueError("need one phase length per energy point")
    q = canonical_quadratic()
    if ua is None:
        ua = generate_instance(n, seed, p_cnot, depth, coupling)
    hmat = _hermitian_matrix(ua, q)
    psi = StateVector.basis(n, 0).amplitudes
    rng = np.random.default_rng(seed) if shots else None
    values, exact, reports = [], [], []
    for E, length in zip(energies, lengths):
        t0 = time.perf_counter()
        p, qc, par = _series_part(
            ua, q, lorentzian_sqrt(eta, E), length - 1, shots, rng, noise_model, sigma
        )
        s = par["scale"]**2 * p / (eta * math.pi)
        s_ref = exact_spectral_measure(hmat, psi, E, eta)
        values.append(complex(s))
        exact.append(complex(s_ref))
        reports.append(
            BenchmarkReport(
                task="spectral",
                seed=seed,
                params={"n": n, "E": E, "eta": eta, "length": length,
                        **par, "shots": shots, "sigma": sigma},
                p_measured=p,
                p_exact=s_ref * eta * math.pi / par["scale"]**2,
                gate_counts=G.gate_count(qc.circuit),
                wall_time=time.perf_counter() - t0,
            )
        )
    return SeriesResult(tuple(energies), tuple(values), tuple(exact), tuple(reports))


# -- thermal average of the energy --------------------------------------


def _default_metts_lengths(beta: float) -> tuple[int, int]:
    """(odd numerator degree, even denominator degree) by temperature."""
    d_num = 3 if beta <= 2 else 5 if beta <= 5 else 7
    d_den = 2 if beta <= 2 else 4 if beta <= 6 else 6
    return d_num, d_den


@dataclass(frozen=True)
class MettsTrace:
    """One Markov chain of basis states with per-step energy estimates."""

    states: tuple[int, ...]
    energies: tuple[float, ...]
    next_states: tuple[int, ...]
    cma: tuple[float, ...]
    estimate: float
    exact: float
    resamples: int
    flagged: int

    def __post_init__(self):
        run = np.cumsum(self.energies) / np.arange(1, len(self.energies) + 1)
        if np.abs(run - np.asarray(self.cma)).max() > 1e-9:
            raise ValueError("cma series inconsistent with energies")


PD_FLOOR = 1e-12

# shots of one sampled collapse; with none of them post-selected the next
# state is drawn uniformly
COLLAPSE_SHOTS = 100


def metts_run(
    beta: float,
    steps: int,
    n: int,
    seed: int,
    shots: int = 0,
    noise_model: NoiseModel | None = None,
    sigma: float = 0.0,
    d_num: int | None = None,
    d_den: int | None = None,
    p_cnot: float = 0.5,
    depth: int | None = None,
    coupling=None,
    ua: BlockEncoding | None = None,
) -> tuple[MettsTrace, BenchmarkReport]:
    """Thermal energy of the canonical Hermitian instance by a typical-
    thermal-state Markov chain.

    Per step at basis state |i>: energy_i = (sn^2 pn) / (sd^2 pd), where
    the numerator circuit applies the odd polynomial fit of
    x exp(-beta x^2 / 2) directly to the singular values of A (valid
    because the canonical quadratic is h(x) = x^2) and the denominator
    applies exp(-beta y / 2) composed with h.  The chain collapses by
    running the denominator circuit, post-selecting both ancillas on 0,
    and measuring the system register; sampled mode draws COLLAPSE_SHOTS
    shots at once and moves to the system bits of a uniformly chosen draw
    whose ancillas read 00, or to a uniform state (a resample) when none
    does.  At beta = 0 the denominator is a constant, so the literal
    collapse never moves; any distribution is then stationary and the
    next state is drawn uniformly, the exact infinite-temperature
    behavior."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    auto_num, auto_den = _default_metts_lengths(beta)
    d_num = auto_num if d_num is None else d_num
    d_den = auto_den if d_den is None else d_den
    if d_num % 2 == 0 or d_den % 2:
        raise ValueError("numerator degree must be odd, denominator even")
    t0 = time.perf_counter()
    q = canonical_quadratic()
    if ua is None:
        ua = generate_instance(n, seed, p_cnot, depth, coupling)
    hmat = _hermitian_matrix(ua, q)

    f_num, err_num = fit_scaled(odd_gibbs(beta), d_num, "odd", (0.0, 1.0))
    qc_num, res_num = _qsvt_for(ua, f_num, allow_odd=True)
    g_den = fit_on_interval(gibbs(beta), d_den // 2, (q.a0, q.a0 + q.a2))
    f_den = compose_fit(g_den, q)
    qc_den, res_den = _qsvt_for(ua, f_den)

    rng = np.random.default_rng(seed)
    dim = 2**n
    n_tot = qc_den.circuit.n_qubits

    exact_mode = shots == 0
    if exact_mode:
        # column c of the unitary is the circuit acting on basis state c;
        # ancillas-at-zero rows are the first dim entries
        U_num = circuit_unitary(qc_num.circuit)
        U_den = circuit_unitary(qc_den.circuit)
        pn_by_state = np.sum(np.abs(U_num[:dim, :dim]) ** 2, axis=0)
        pd_by_state = np.sum(np.abs(U_den[:dim, :dim]) ** 2, axis=0)
        collapse_blocks = np.abs(U_den[:dim, :dim]) ** 2

    noise_params = _noise_params(noise_model, sigma, shots, [qc_num.circuit, qc_den.circuit])
    noise = None if exact_mode else _noisy(noise_model, sigma)
    states, energies, nexts = [], [], []
    resamples = 0
    flagged = 0
    i = 0
    for _ in range(steps):
        if exact_mode:
            pn = float(pn_by_state[i])
            pd = float(pd_by_state[i])
        else:
            inp = StateVector.basis(n_tot, i)
            counts = _sample(qc_num.circuit, shots, [0, 1], rng, noise, inp)
            pn = counts.counts.get("00", 0) / shots
            counts = _sample(qc_den.circuit, shots, [0, 1], rng, noise, inp)
            pd = counts.counts.get("00", 0) / shots
        denom = f_den.scale**2 * pd
        if denom < PD_FLOOR:
            flagged += 1
            energy = 0.0
        else:
            energy = (f_num.scale**2 * pn) / denom
        states.append(i)
        energies.append(energy)

        if beta == 0.0:
            i_next = int(rng.integers(dim))
        elif exact_mode:
            dist = collapse_blocks[:, i]
            total = float(dist.sum())
            if total < PD_FLOOR:
                resamples += 1
                i_next = int(rng.integers(dim))
            else:
                i_next = int(rng.choice(dim, p=dist / total))
        else:
            counts = _sample(qc_den.circuit, COLLAPSE_SHOTS, list(range(n_tot)), rng, noise, inp)
            # the draws are exchangeable, so a uniform pick among those
            # post-selected has the law of the first post-selected one
            hits = [int(bits[2:], 2) for bits, k in counts.counts.items()
                    if bits[:2] == "00" for _ in range(k)]
            if hits:
                i_next = hits[rng.integers(len(hits))]
            else:
                resamples += 1
                i_next = int(rng.integers(dim))
        nexts.append(i_next)
        i = i_next

    cma = tuple(np.cumsum(energies) / np.arange(1, steps + 1))
    estimate = cma[-1]
    exact = exact_thermal_energy(hmat, beta)
    trace = MettsTrace(
        states=tuple(states),
        energies=tuple(energies),
        next_states=tuple(nexts),
        cma=cma,
        estimate=float(estimate),
        exact=float(exact),
        resamples=resamples,
        flagged=flagged,
    )
    report = BenchmarkReport(
        task="metts",
        seed=seed,
        params={"beta": beta, "steps": steps, "n": n, "d_num": d_num,
                "d_den": d_den, "shots": shots, "sigma": sigma,
                "scale_num": f_num.scale, "scale_den": f_den.scale,
                "fit_error_num": err_num, "fit_error_den": g_den.err,
                "residual_num": res_num, "residual_den": res_den,
                "converged": bool(max(res_num, res_den) <= CONVERGED_L),
                "resamples": resamples, "flagged": flagged, **noise_params},
        p_measured=float(estimate),
        p_exact=float(exact),
        gate_counts=G.gate_count(qc_den.circuit),
        wall_time=time.perf_counter() - t0,
    )
    return trace, report


def write_cma_csv(trace: MettsTrace, path: str):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "state", "energy", "next_state", "cma"])
        for k, (s, e, nx, c) in enumerate(
            zip(trace.states, trace.energies, trace.next_states, trace.cma), start=1
        ):
            w.writerow([k, s, e, nx, c])
