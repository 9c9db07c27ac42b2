"""End-to-end experiments: benchmark, linear solve, series, thermal average.

Every task generates a random block-encoding instance from a seed, builds
the polynomial-transform circuit for its target function, and reports a
measured success probability against the dense-linear-algebra reference.
Every outcome is read through one per-run `_Measure`: "exact mode"
(shots=0) reads the ideal outcome law, computed once per (circuit,
measured qubits, input) from the statevector; "sampled mode" draws shots
from that law, or through a noise model scaled by sigma.  One function,
`sampling`, decides a run's shots and sigma, for the tasks and for the
command line's config echo alike.  `_Measure.point` makes the report of
every measured point; only MeTTS, valued by its chain, builds its own.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import gates as G
from .blockenc import BlockEncoding, extract_block
from .chebpoly import (
    DEFAULT_MARGIN,
    ChebPoly,
    QuadraticH,
    compose_fit,
    cos_sqrt,
    fit_on_interval,
    fit_scaled,
    gibbs,
    inverse,
    lorentzian_sqrt,
    odd_gibbs,
    quadratic_for_condition,
    sin_sqrt,
)
from .generator import (
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
    apply,
    marginal_probabilities,
    sample_from_probs,
)


def canonical_quadratic() -> QuadraticH:
    """h(x) = x^2, the quadratic of `blockenc.build_canonical_hracbem`."""
    return QuadraticH(a2=1.0, a0=0.0)


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


def write_csv(reports: list[BenchmarkReport], fh):
    """Flat CSV for plotting, to a file opened with newline=""; params and
    gate counts become dotted columns."""
    rows = []
    for r in reports:
        rec = r.to_record()
        flat = {k: rec[k] for k in ("task", "seed", "p_measured", "p_exact", "relative_error", "wall_time")}
        for k, v in rec["params"].items():
            flat[f"params.{k}"] = v
        for k, v in rec["gate_counts"].items():
            flat[f"gates.{k}"] = v
        rows.append(flat)
    cols = list(dict.fromkeys(k for row in rows for k in row))  # first-seen order
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
    return generate_block_encoding(GeneratorConfig(coupling, p_cnot, depth, seed), n)


def sampling(shots: int, noise_model: NoiseModel | None,
             sigma: float | None) -> tuple[int, float]:
    """(shots, sigma) of a run: shots 0 is exact mode, and negative shots
    raise.  A sigma of None means 1 with a noise model and 0 without.  The
    sigma returned is the one applied: 0 in exact mode, with no model, or
    at sigma 0."""
    if shots < 0:
        raise ValueError("shots must be >= 0 (0 is exact mode)")
    if not shots or noise_model is None:
        return shots, 0.0
    return shots, 1.0 if sigma is None else sigma


class _Measure:
    """How one run reads its outcomes.  `weights` gives, in bitstring
    order, the ideal outcome law at shots 0, else the count vector
    (`CountsHistogram.draws`) of one draw from the run's generator, seeded
    by the run's seed: from that law, or through the noise model scaled
    once by sigma.  Each ideal law is computed once per run; the noisy
    sampler is looked up in this module at call time."""

    def __init__(self, shots: int, noise_model: NoiseModel | None, sigma: float | None,
                 seed: int):
        self.shots, self.sigma = sampling(shots, noise_model, sigma)
        self.model, self.rng = noise_model, np.random.default_rng(seed)
        self.noise = scale_noise(noise_model, self.sigma) if self.sigma else None
        self.laws: dict = {}  # (circuit, measured, input bytes) -> ideal law

    def law(self, circuit: G.QuantumCircuit, measured: list[int],
            input_state: StateVector) -> np.ndarray:
        """The ideal outcome law on the measured qubits, read-only, computed
        once per run."""
        key = (circuit, tuple(measured), input_state.amplitudes.tobytes())
        law = self.laws.get(key)
        if law is None:
            law = self.laws[key] = marginal_probabilities(apply(circuit, input_state), measured)
            law.setflags(write=False)  # handed to every later caller
        return law

    def weights(self, circuit: G.QuantumCircuit, shots: int, measured: list[int],
                input_state: StateVector) -> np.ndarray:
        """Outcome weights on the measured qubits (measured[0] the most
        significant bit): the exact law in exact mode, else the counts
        of `shots` draws."""
        if self.noise is not None:
            return sample_noisy_counts(circuit, self.noise, shots, measured, self.rng,
                                       input_state).draws
        law = self.law(circuit, measured, input_state)
        return law if self.shots == 0 else sample_from_probs(law, shots, self.rng).draws

    def success(self, circuit: G.QuantumCircuit, m: int,
                input_state: StateVector | None = None) -> float:
        """P(all m ancillas read 0)."""
        if input_state is None:
            input_state = StateVector.zero(circuit.n_qubits)
        w = self.weights(circuit, self.shots, list(range(m)), input_state)
        return float(w[0]) / (self.shots or 1)

    def params(self, circuits) -> dict:
        """The report's shots and sigma and, on a noisy sampled run,
        `noise_coverage`: the share of the sampled gates that have an error
        entry.  sigma is the one applied (`sampling`).  A model that covers
        no gate, say one built for another register size, would pass an
        ideal run off as noisy, so it raises."""
        params = {"shots": self.shots, "sigma": self.sigma}
        if self.noise is not None:
            share = coverage(self.model, circuits)
            if share == 0.0:
                raise ValueError("the noise model has no error entry for any gate of the circuit")
            params["noise_coverage"] = share
        return params

    def point(self, task: str, seed: int, params: dict, circuit: G.QuantumCircuit, m: int,
              p_exact: float, t0: float) -> BenchmarkReport:
        """The report of one measured point, timed from t0: the point's own
        params and then the run's (`params`, so a bad model raises before
        any draw), P(all m ancillas read 0) and the circuit's gate counts."""
        params = {**params, **self.params([circuit])}
        return BenchmarkReport(task, seed, params, self.success(circuit, m), p_exact,
                               G.gate_count(circuit), time.perf_counter() - t0)


def _qsvt_for(ua: BlockEncoding, f: ChebPoly, allow_odd: bool = False):
    """Phases for f, then the assembled circuit; returns (qsvt, residual)."""
    phases, residual = optimize(f)
    qc = build(ua, to_varphi(phases), allow_odd=allow_odd)
    return qc, residual


def _point(
    ua: BlockEncoding,
    q: QuadraticH,
    target,
    degree: int,
    margin: float = DEFAULT_MARGIN,
) -> tuple[QsvtCircuit, dict]:
    """One QSVT point: fit the target on h's range, compose with h, solve
    the phases and build the circuit of even degree `degree` >= 2 (phase
    length degree + 1); any other degree raises.

    Returns (circuit, report params: scale, fit error in target units,
    phase residual and its convergence flag)."""
    if degree < 2 or degree % 2:
        raise ValueError(f"need an even degree >= 2 (an odd phase length >= 3), got {degree}")
    g = fit_on_interval(target, degree // 2, (q.a0, q.a0 + q.a2), margin)
    f = compose_fit(g, q)
    qc, residual = _qsvt_for(ua, f)
    return qc, {"scale": f.scale, "fit_error": g.err, "residual": residual,
                "converged": bool(residual <= CONVERGED_L)}


def _hermitian_matrix(ua: BlockEncoding, q: QuadraticH) -> np.ndarray:
    A = extract_block(ua)
    return q.a2 * (A.conj().T @ A) + q.a0 * np.eye(A.shape[0])


def _canonical_instance(n, seed, p_cnot, depth, coupling, ua):
    """(U_A, canonical h, h(A), |0^n>), generating U_A unless given."""
    q = canonical_quadratic()
    if ua is None:
        ua = generate_instance(n, seed, p_cnot, depth, coupling)
    return ua, q, _hermitian_matrix(ua, q), StateVector.basis(n, 0).amplitudes


# -- RACBEM application benchmark ---------------------------------------

DEFAULT_SHOTS = 8192


def racbem_benchmark(
    n: int,
    seed: int,
    shots: int = DEFAULT_SHOTS,
    noise_model: NoiseModel | None = None,
    sigma: float | None = None,
    p_cnot: float = 0.5,
    depth: int | None = None,
    coupling=None,
) -> BenchmarkReport:
    """Success probability of A|0^n> against its exact norm squared."""
    t0 = time.perf_counter()
    ua = generate_instance(n, seed, p_cnot, depth, coupling)
    run = _Measure(shots, noise_model, sigma, seed)
    # ||A|0^n>||^2 is the weight of U|0> on the ancilla-0 half
    p_exact = float(run.law(ua.circuit, [0], StateVector.zero(n + 1))[0])
    params = {"n": n, "p_cnot": p_cnot, "depth": ua.circuit.depth}
    return run.point("racbem-bench", seed, params, ua.circuit, 1, p_exact, t0)


# -- linear-solve success-probability benchmark -------------------------


def linpack_run(
    kappa: float,
    n: int,
    d: int,
    seed: int,
    shots: int = 0,
    noise_model: NoiseModel | None = None,
    sigma: float | None = None,
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
    t0 = time.perf_counter()
    ua = generate_instance(n, seed, p_cnot, depth, coupling)
    q = quadratic_for_condition(kappa)
    # margin 0 keeps alpha at kappa (plus fit overshoot only), so the
    # success floor (1/kappa - eps)^2 <= ||alpha^-1 h^-1 b||^2 holds for
    # every instance, including b aligned with the top eigenvector
    qc, point = _point(ua, q, inverse(kappa), d, margin=0.0)
    alpha = point["scale"]
    eps = point["fit_error"] / alpha
    run = _Measure(shots, noise_model, sigma, seed)
    x = np.linalg.solve(_hermitian_matrix(ua, q), StateVector.basis(n, 0).amplitudes)
    p_exact = float(np.linalg.norm(x / alpha) ** 2)
    bound_floor = (1 / kappa - eps) ** 2
    params = {
        "kappa": kappa, "n": n, "d": d, "p_cnot": p_cnot,
        "depth": ua.circuit.depth, "alpha": alpha, "epsilon": eps,
        "residual": point["residual"], "converged": point["converged"],
        "relative_error_bound": (2 * kappa * eps / (1 - kappa * eps)
                                 if kappa * eps < 1 else math.inf),
        "p_exact_floor": bound_floor,
        "p_exact_above_floor": bool(p_exact >= bound_floor),
        "gate_budget": qc.gate_budget,
    }
    return run.point("linpack", seed, params, qc.circuit, 2, p_exact, t0)


# -- time series --------------------------------------------------------

# default t grid, and per-point phase lengths and eta offsets for it
# (shallow profile; lengths are d+1 with d the even composite degree)
TS_GRID = tuple(range(1, 11))
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


def time_series_run(
    n: int,
    seed: int,
    ts: tuple[float, ...] = TS_GRID,
    lengths_real: tuple[int, ...] = TS_LENGTHS_REAL,
    lengths_imag: tuple[int, ...] = TS_LENGTHS_IMAG,
    etas_real: tuple[float, ...] = TS_ETAS_REAL,
    etas_imag: tuple[float, ...] = TS_ETAS_IMAG,
    shots: int = 0,
    noise_model: NoiseModel | None = None,
    sigma: float | None = None,
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
    ua, q, hmat, psi = _canonical_instance(n, seed, p_cnot, depth, coupling, ua)
    run = _Measure(shots, noise_model, sigma, seed)
    values, exact, reports = [], [], []
    for t, dr, di, er, ei in zip(ts, lengths_real, lengths_imag, etas_real, etas_imag):
        s_ref = exact_time_series(hmat, psi, t)
        parts = []
        for part, target, length, eta, ref in (
            ("real", cos_sqrt(t, er), dr, er, s_ref.real),
            ("imag", sin_sqrt(t, ei), di, ei, s_ref.imag),
        ):
            t0 = time.perf_counter()
            qc, par = _point(ua, q, target, length - 1)
            r = run.point(f"timeseries-{part}", seed,
                          {"n": n, "t": t, "eta": eta, "length": length, **par},
                          qc.circuit, 2, (ref + eta) / 2 / par["scale"]**2, t0)
            parts.append(2 * par["scale"]**2 * r.p_measured - eta)
            reports.append(r)
        values.append(complex(*parts))
        exact.append(s_ref)
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
    sigma: float | None = None,
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
    ua, q, hmat, psi = _canonical_instance(n, seed, p_cnot, depth, coupling, ua)
    run = _Measure(shots, noise_model, sigma, seed)
    values, exact, reports = [], [], []
    for E, length in zip(energies, lengths):
        t0 = time.perf_counter()
        qc, par = _point(ua, q, lorentzian_sqrt(eta, E), length - 1)
        s_ref = exact_spectral_measure(hmat, psi, E, eta)
        r = run.point("spectral", seed, {"n": n, "E": E, "eta": eta, "length": length, **par},
                      qc.circuit, 2, s_ref * eta * math.pi / par["scale"]**2, t0)
        values.append(complex(par["scale"]**2 * r.p_measured / (eta * math.pi)))
        exact.append(complex(s_ref))
        reports.append(r)
    return SeriesResult(tuple(energies), tuple(values), tuple(exact), tuple(reports))


# -- thermal average of the energy --------------------------------------


def _default_metts_lengths(beta: float) -> tuple[int, int]:
    """(odd numerator degree, even denominator degree) by temperature."""
    d_num = 3 if beta <= 2 else 5 if beta <= 5 else 7
    d_den = 2 if beta <= 2 else 4 if beta <= 6 else 6
    return d_num, d_den


@dataclass(frozen=True)
class MettsTrace:
    """One Markov chain of basis states with per-step energy estimates;
    the running average and the estimate are derived from the energies,
    not stored independently, so they always match them."""

    states: tuple[int, ...]
    energies: tuple[float, ...]
    next_states: tuple[int, ...]
    exact: float
    resamples: int
    flagged: int

    @property
    def cma(self) -> tuple[float, ...]:
        return tuple(np.cumsum(self.energies) / np.arange(1, len(self.energies) + 1))

    @property
    def estimate(self) -> float:
        return float(self.cma[-1])


PD_FLOOR = 1e-12

# shots of one sampled collapse; with none of them post-selected the next
# state is drawn uniformly
COLLAPSE_SHOTS = 100


def _draw(w: np.ndarray, total: float, rng: np.random.Generator) -> int:
    """Index i with probability w[i] / total: the draw of
    rng.choice(len(w), p=w / total), from the same uniform, at about half
    its cost."""
    cdf = np.cumsum(w / total)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def metts_run(
    beta: float,
    steps: int,
    n: int,
    seed: int,
    shots: int = 0,
    noise_model: NoiseModel | None = None,
    sigma: float | None = None,
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
    and measuring the system register: the next state is drawn from the
    weights of the outcomes whose ancillas read 00 (the exact law in exact
    mode, the counts of COLLAPSE_SHOTS draws in sampled mode), or
    uniformly (a resample) when those weights sum to nothing.  Every mode
    runs the same loop.  At beta = 0 the denominator is a constant, so
    the literal collapse never moves; any distribution is then stationary
    and the next state is drawn uniformly, the exact infinite-temperature
    behavior."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    auto_num, auto_den = _default_metts_lengths(beta)
    d_num = auto_num if d_num is None else d_num
    d_den = auto_den if d_den is None else d_den
    if d_num % 2 == 0:
        raise ValueError(f"numerator degree must be odd, got {d_num}")
    t0 = time.perf_counter()
    ua, q, hmat, _ = _canonical_instance(n, seed, p_cnot, depth, coupling, ua)
    f_num, err_num = fit_scaled(odd_gibbs(beta), d_num, "odd", (0.0, 1.0))
    qc_num, res_num = _qsvt_for(ua, f_num, allow_odd=True)
    qc_den, den = _point(ua, q, gibbs(beta), d_den)

    run = _Measure(shots, noise_model, sigma, seed)
    rng = run.rng
    dim = 2**n
    n_tot = qc_den.circuit.n_qubits
    run_params = run.params([qc_num.circuit, qc_den.circuit])
    states, energies, nexts = [], [], []
    resamples = 0
    flagged = 0
    inputs: dict[int, StateVector] = {}  # basis input of each visited state
    i = 0
    for _ in range(steps):
        if i not in inputs:
            inputs[i] = StateVector.basis(n_tot, i)
        inp = inputs[i]
        pn = run.success(qc_num.circuit, 2, inp)
        pd = run.success(qc_den.circuit, 2, inp)
        denom = den["scale"]**2 * pd
        if denom < PD_FLOOR:
            flagged += 1
            energy = 0.0
        else:
            energy = (f_num.scale**2 * pn) / denom
        states.append(i)
        energies.append(energy)

        if beta == 0.0:
            i_next = int(rng.integers(dim))
        else:
            # the outcomes whose ancillas read 00 are the first dim
            w = run.weights(qc_den.circuit, COLLAPSE_SHOTS, list(range(n_tot)), inp)[:dim]
            total = float(w.sum())
            if total < PD_FLOOR:
                resamples += 1
                i_next = int(rng.integers(dim))
            else:
                i_next = _draw(w, total, rng)
        nexts.append(i_next)
        i = i_next

    trace = MettsTrace(tuple(states), tuple(energies), tuple(nexts),
                       float(exact_thermal_energy(hmat, beta)), resamples, flagged)
    params = {"beta": beta, "steps": steps, "n": n, "d_num": d_num, "d_den": d_den,
              **run_params, "scale_num": f_num.scale, "scale_den": den["scale"],
              "fit_error_num": err_num, "fit_error_den": den["fit_error"],
              "residual_num": res_num, "residual_den": den["residual"],
              "converged": bool(max(res_num, den["residual"]) <= CONVERGED_L),
              "resamples": resamples, "flagged": flagged}
    return trace, BenchmarkReport("metts", seed, params, trace.estimate, trace.exact,
                                  G.gate_count(qc_den.circuit), time.perf_counter() - t0)


def write_cma_csv(trace: MettsTrace, fh):
    """The chain step by step with its running average, to a file opened
    with newline=""."""
    w = csv.writer(fh)
    w.writerow(["step", "state", "energy", "next_state", "cma"])
    for k, (s, e, nx, c) in enumerate(
        zip(trace.states, trace.energies, trace.next_states, trace.cma), start=1
    ):
        w.writerow([k, s, e, nx, c])
