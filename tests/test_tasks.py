import csv
import gc
import math
import weakref

import numpy as np
import pytest
from scipy import stats

from racbem import gates as G
from racbem import noise, statevector, tasks
from racbem.blockenc import BlockEncoding, extract_block
from racbem.chebpoly import compose_fit, fit_on_interval, fit_scaled, gibbs, odd_gibbs
from racbem.generator import linear_coupling_map
from racbem.noise import NoiseModel, synth_model
from racbem.phasefactors import CONVERGED_L
from racbem.qsvt import block_of
from racbem.statevector import (
    StateVector,
    apply,
    circuit_unitary,
    marginal_probabilities,
    sample_from_probs,
)
from racbem.tasks import (
    BenchmarkReport,
    canonical_quadratic,
    generate_instance,
    linpack_run,
    metts_run,
    racbem_benchmark,
    spectral_run,
    time_series_run,
    write_cma_csv,
    write_csv,
)


def test_exact_linpack_makes_no_gate_beyond_ua_and_phases(monkeypatch):
    # the generator's U_A and the d + 5 phase gates (d + 1 rz, X, CNOT, X
    # and H) are the only gates an exact run makes: counting, fusing and
    # simulating place no copy, and the logical count is 7(d+1) + 2 beside U_A
    n, seed, d = 3, 4, 8
    ua_gates = sum(1 for _ in generate_instance(n, seed).circuit.gates())
    made = []
    init = G.Gate.__post_init__
    monkeypatch.setattr(G.Gate, "__post_init__", lambda g: made.append(g) or init(g))
    r = linpack_run(5.0, n, d, seed)
    assert len(made) == ua_gates + d + 5
    assert r.gate_counts["total"] == ua_gates * d + 7 * (d + 1) + 2


def identity_ua(n):
    return BlockEncoding(G.QuantumCircuit(n + 1), n, m=1)


def test_canonical_quadratic_is_square():
    q = canonical_quadratic()
    xs = np.linspace(-1, 1, 11)
    assert np.allclose(q(xs), xs**2, atol=1e-12)


def test_report_relative_error():
    r = BenchmarkReport("t", 0, {}, 0.11, 0.10, {}, 0.0)
    assert r.relative_error == pytest.approx(0.1)
    z = BenchmarkReport("t", 0, {}, 0.0, 0.0, {}, 0.0)
    assert z.relative_error == 0.0
    inf = BenchmarkReport("t", 0, {}, 0.1, 0.0, {}, 0.0)
    assert math.isinf(inf.relative_error)


def test_writers(tmp_path):
    r = BenchmarkReport("t", 3, {"n": 2}, 0.5, 0.5, {"total": 4}, 0.01)
    cv = tmp_path / "r.csv"
    with cv.open("w", newline="") as fh:
        write_csv([r], fh)
    rows = list(csv.DictReader(cv.open()))
    assert rows[0]["params.n"] == "2"
    assert rows[0]["gates.total"] == "4"


def test_generate_instance_deterministic():
    a = generate_instance(2, 7)
    b = generate_instance(2, 7)
    assert a.circuit == b.circuit
    assert a.circuit.depth == 7  # default depth rule for n = 2


def test_measure_success_modes():
    ua = generate_instance(2, 5)
    p_exact = tasks._Measure(0, None, 0.0, 0).success(ua.circuit, 1)
    assert 0.0 <= p_exact <= 1.0
    p_sampled = tasks._Measure(8192, None, 0.0, 0).success(ua.circuit, 1)
    assert abs(p_sampled - p_exact) < 5 * np.sqrt(p_exact * (1 - p_exact) / 8192) + 1e-3
    with pytest.raises(ValueError):
        tasks._Measure(-5, None, 0.0, 0).success(ua.circuit, 1)


def test_measure_success_matches_born_distribution():
    c = G.from_gates(1, [G.h(0)])
    shots = 8192
    p0 = tasks._Measure(shots, None, 0.0, 12345).success(c, 1)
    # 5 sigma MC band around 0.5
    assert abs(p0 - 0.5) < 5 * 0.5 / np.sqrt(shots)


def test_sampled_weights_are_one_draw_from_the_cached_law():
    c = generate_instance(2, 5).circuit
    inp = StateVector.basis(3, 6)
    run = tasks._Measure(64, None, 0.0, 3)
    law = marginal_probabilities(apply(c, inp), [2, 0])
    ref = sample_from_probs(law, 64, np.random.default_rng(3))
    assert np.array_equal(run.weights(c, 64, [2, 0], inp), ref.draws)
    # a noisy run's weights are the counts of one noisy sampler call
    model = synth_model(linear_coupling_map(3), 0.01, 0.05, 0.02, np.random.default_rng(2))
    noisy = tasks._Measure(64, model, 0.5, 4)
    ref = noise.sample_noisy_counts(c, noise.scale(model, 0.5), 64, [2, 0],
                                    np.random.default_rng(4), inp)
    assert np.array_equal(noisy.weights(c, 64, [2, 0], inp), ref.draws)
    # exact mode reads the law itself, kept once per key
    exact = tasks._Measure(0, None, 0.0, 0)
    assert np.array_equal(exact.weights(c, 0, [2, 0], inp), law)
    assert exact.weights(c, 0, [2, 0], inp) is exact.weights(c, 0, [2, 0], inp)
    with pytest.raises(ValueError):
        exact.weights(c, 0, [2, 0], inp)[0] = 1.0
    assert not np.array_equal(exact.weights(c, 0, [0, 2], inp), law)


def test_racbem_benchmark_exact_mode_is_exact():
    r = racbem_benchmark(2, 11, shots=0)
    assert r.p_measured == pytest.approx(r.p_exact, abs=1e-12)
    A = extract_block(generate_instance(2, 11))
    assert r.p_exact == pytest.approx(float(np.linalg.norm(A[:, 0]) ** 2))
    assert r.gate_counts["total"] > 0


def test_racbem_benchmark_reads_p_exact_from_the_run_law(monkeypatch):
    # one statevector pass per instance: the law that p_exact reads is the
    # one the exact mode reads and the sampled mode draws from
    from racbem import statevector

    passes = []
    real = statevector._run
    monkeypatch.setattr(statevector, "_run", lambda *a: passes.append(1) or real(*a))
    for shots in (0, 256):
        passes.clear()
        r = racbem_benchmark(2, 11, shots=shots)
        assert len(passes) == 1
    assert r.p_exact == racbem_benchmark(2, 11, shots=0).p_measured


def test_sampling_rules():
    nm = _metts_noise_model()
    with pytest.raises(ValueError, match="shots must be >= 0"):
        tasks.sampling(-1, None, None)
    for shots, model, sigma, want in (
        (0, nm, 0.5, (0, 0.0)),  # exact mode applies no noise
        (100, None, 0.5, (100, 0.0)),  # nor does a run with no model
        (100, nm, None, (100, 1.0)),  # a model without sigma runs at 1
        (100, nm, 0.0, (100, 0.0)),
        (100, nm, 0.3, (100, 0.3)),
        (0, None, None, (0, 0.0)),
    ):
        assert tasks.sampling(shots, model, sigma) == want


def test_noise_model_without_sigma_runs_noisy(monkeypatch):
    # as on the command line, a model given without sigma is applied at 1
    noisy_calls, ideal_runs = _noisy_seam(monkeypatch)
    res = spectral_run(2, 3, energies=(0.5,), lengths=7, shots=256,
                       noise_model=_metts_noise_model())
    assert len(noisy_calls) == 1 and not ideal_runs
    assert res.reports[0].params["sigma"] == 1.0


def test_linpack_exact_bound_holds():
    r = linpack_run(2.0, 2, 6, seed=11, shots=0)
    assert r.relative_error <= r.params["relative_error_bound"]
    assert r.p_exact >= r.params["p_exact_floor"]
    assert r.params["p_exact_above_floor"]
    assert r.gate_counts["total"] <= r.params["gate_budget"]


def test_linpack_validation():
    with pytest.raises(ValueError):
        linpack_run(0.5, 2, 4, 0)
    with pytest.raises(ValueError):
        linpack_run(2.0, 2, 5, 0)  # odd degree


def test_time_series_identity_instance():
    # A = I: h(A) = I, so s(t) = e^{it} for any t
    res = time_series_run(
        2, 0, ts=(0.5, 1.0), lengths_real=(5, 5), lengths_imag=(5, 5),
        etas_real=(1.0, 1.0), etas_imag=(1.0, 1.0), ua=identity_ua(2),
    )
    for t, s, s_ref in zip(res.grid, res.values, res.exact):
        assert s_ref == pytest.approx(complex(np.cos(t), np.sin(t)), abs=1e-12)
        assert abs(s - s_ref) < 2e-2
    assert len(res.reports) == 4
    for r in res.reports:
        # p_measured carries the polynomial fit error, p_exact does not
        assert r.p_measured == pytest.approx(r.p_exact, abs=5e-3)
        assert r.params["residual"] <= CONVERGED_L


def test_time_series_parameter_validation():
    with pytest.raises(ValueError):
        time_series_run(2, 0, ts=(1.0,), lengths_real=(3, 3),
                        lengths_imag=(3,), etas_real=(1.0,), etas_imag=(1.0,))
    with pytest.raises(ValueError):
        time_series_run(2, 0, ts=(1.0,), lengths_real=(3,), lengths_imag=(3,),
                        etas_real=(0.5,), etas_imag=(1.0,))
    # an even phase length is an odd degree, which would run one phase short
    with pytest.raises(ValueError, match="got 3"):
        time_series_run(2, 3, (1.0,), (4,), (3,), (1.0,), (1.0,))
    with pytest.raises(ValueError, match="got 0"):
        time_series_run(2, 3, (1.0,), (3,), (1,), (1.0,), (1.0,))


def test_spectral_run_validation():
    with pytest.raises(ValueError, match="eta"):
        spectral_run(2, 13, energies=(0.3,), eta=0.0)
    with pytest.raises(ValueError, match="one phase length per energy"):
        spectral_run(2, 13, energies=(0.3, 0.5), lengths=(5, 5, 5))
    # length 12 is degree 11, which would build 11 phases under a report of length 12
    with pytest.raises(ValueError, match="got 11"):
        spectral_run(2, 13, energies=(0.3,), lengths=12)


def test_spectral_run_basics():
    res = spectral_run(2, 3, energies=(0.0, 0.5, 1.0), lengths=7)
    for s in res.values:
        assert s.real >= 0.0
    for s_ref in res.exact:
        assert s_ref.real > 0.0
    assert len(res.reports) == 3
    assert res.reports[0].params["length"] == 7
    for r in res.reports:
        assert r.params["residual"] <= CONVERGED_L


def test_metts_beta_zero_uniform_limit():
    trace, report = metts_run(0.0, 400, 2, seed=8, shots=0)
    # beta = 0: thermal energy is the eigenvalue mean, chain is uniform
    assert report.p_exact == pytest.approx(trace.exact)
    counts = np.bincount(trace.next_states, minlength=4)
    assert counts.min() > 0.5 * 100  # near-uniform visits over 4 states
    spread = max(trace.energies) - min(trace.energies)
    band = 4 * (spread / 2) / np.sqrt(400) + 1e-12
    assert abs(trace.estimate - trace.exact) < band + 0.05


def test_metts_exact_mode_deterministic():
    a, report = metts_run(1.0, 50, 2, seed=15, shots=0)
    assert report.params["residual_num"] <= CONVERGED_L
    assert report.params["residual_den"] <= CONVERGED_L
    b, _ = metts_run(1.0, 50, 2, seed=15, shots=0)
    assert a.states == b.states
    assert a.energies == b.energies


def _metts_noise_model():
    # n = 2 system qubits plus signal and ancilla
    return synth_model(linear_coupling_map(4), 0.01, 0.05, 0.02, np.random.default_rng(2))


def _chain(trace):
    return trace.states, trace.energies, trace.next_states, trace.resamples


def test_metts_noisy_sampled_reproducible_from_seed():
    nm = _metts_noise_model()
    a, _ = metts_run(1.0, 20, 2, seed=6, shots=64, noise_model=nm, sigma=1.0)
    b, _ = metts_run(1.0, 20, 2, seed=6, shots=64, noise_model=nm, sigma=1.0)
    assert _chain(a) == _chain(b)


def test_run_frees_its_scaled_model(monkeypatch):
    # the circuits and the instance outlive a run, and nothing on them refers
    # to the run's scaled model, so it goes with the run, without the collector
    refs = []
    real = tasks.scale_noise

    def recording(model, sigma):
        scaled = real(model, sigma)
        refs.append(weakref.ref(scaled))
        return scaled

    monkeypatch.setattr(tasks, "scale_noise", recording)
    ua = generate_instance(2, 6)
    gc.disable()
    try:
        metts_run(1.0, 5, 2, seed=6, shots=64, noise_model=_metts_noise_model(), sigma=1.0, ua=ua)
        spectral_run(2, 6, energies=(0.5,), lengths=7, shots=64,
                     noise_model=_metts_noise_model(), sigma=1.0, ua=ua)
        alive = [r() is not None for r in refs]
    finally:
        gc.enable()
    assert alive == [False, False]


def test_collapse_draw_reproduces_choice():
    # exact and sampled chains keep their states: the same index as
    # rng.choice, and the same generator state after it, on weights with zeros
    for seed in range(10_000):
        gen = np.random.default_rng(seed)
        dim = int(gen.integers(2, 65))
        if seed % 2:  # counts, as in sampled mode
            w = gen.multinomial(64, gen.dirichlet(np.ones(dim))).astype(float)
        else:  # a law, as in exact mode
            w = gen.random(dim) * (gen.random(dim) < 0.5)
            w[gen.integers(dim)] += gen.random()
        a, b = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        total = float(w.sum())
        assert tasks._draw(w, total, a) == b.choice(dim, p=w / total)
        assert a.random() == b.random()


def test_metts_sigma_zero_matches_ideal_sampled():
    ideal, _ = metts_run(1.0, 20, 2, seed=6, shots=64)
    quiet, _ = metts_run(1.0, 20, 2, seed=6, shots=64,
                         noise_model=_metts_noise_model(), sigma=0.0)
    assert _chain(quiet) == _chain(ideal)


def _noisy_seam(monkeypatch) -> tuple[list, list]:
    """Record every call of the noisy sampler and of the ideal simulator
    as tasks looks them up; returns the (shots, measured, counts dict) of
    each noisy call and the circuit of each ideal one."""
    real, real_apply = tasks.sample_noisy_counts, tasks.apply
    noisy_calls, ideal_runs = [], []

    def counting(c, model, shots, measured, *rest):
        counts = real(c, model, shots, measured, *rest)
        noisy_calls.append((shots, list(measured), counts.counts))
        return counts

    def ideal(c, state):
        ideal_runs.append(c)
        return real_apply(c, state)

    monkeypatch.setattr(tasks, "sample_noisy_counts", counting)
    monkeypatch.setattr(tasks, "apply", ideal)
    return noisy_calls, ideal_runs


def test_metts_noisy_collapse_uses_noisy_sampler(monkeypatch):
    noisy_calls, ideal_runs = _noisy_seam(monkeypatch)
    steps = 20
    trace, _ = metts_run(1.0, steps, 2, seed=6, shots=64,
                         noise_model=_metts_noise_model(), sigma=0.5)
    assert not ideal_runs
    assert sum(1 for shots, m, _ in noisy_calls if (shots, m) == (64, [0, 1])) == 2 * steps
    # one all-qubit call per step; the next state is the system bits of
    # one of its draws whose ancillas read 00, or a resample when none does
    collapses = [counts for shots, m, counts in noisy_calls if m == [0, 1, 2, 3]]
    assert len(collapses) == steps == len(noisy_calls) - 2 * steps
    assert all(sum(c.values()) == tasks.COLLAPSE_SHOTS for c in collapses)
    hits = [{int(b[2:], 2) for b in c if b[:2] == "00"} for c in collapses]
    assert sum(not h for h in hits) == trace.resamples
    assert all(nxt in h for h, nxt in zip(hits, trace.next_states) if h)


NOISY_RUNS = {  # task -> (run at n = 2 under a noise model, register width, measured qubits)
    "racbem-bench": (lambda nm: [racbem_benchmark(2, 11, 64, nm, 0.5)], 3, [0]),
    "linpack": (lambda nm: [linpack_run(2.0, 2, 6, 11, 64, nm, 0.5)], 4, [0, 1]),
    "spectral": (lambda nm: spectral_run(2, 13, (0.2, 0.5, 0.8), lengths=11, shots=64,
                                         noise_model=nm, sigma=0.5).reports, 4, [0, 1]),
    "timeseries": (lambda nm: time_series_run(2, 3, (1.0, 2.0), (3, 5), (3, 3), (1.0, 1.5),
                                              (1.0, 1.0), 64, nm, 0.5).reports, 4, [0, 1]),
}


@pytest.mark.parametrize("task", NOISY_RUNS)
def test_noisy_task_reads_through_noisy_sampler(task, monkeypatch):
    # one noisy sampler call per measured circuit, and each point's
    # probability is its call's ancilla-zero count; the ideal simulator
    # runs only for racbem-bench's reference p_exact, the ideal law of the
    # circuit it samples
    run, width, measured = NOISY_RUNS[task]
    noisy_calls, ideal_runs = _noisy_seam(monkeypatch)
    nm = synth_model(linear_coupling_map(width), 0.01, 0.05, 0.02, np.random.default_rng(2))
    reports = run(nm)
    assert len(ideal_runs) == (len(reports) if task == "racbem-bench" else 0)
    assert [(shots, m) for shots, m, _ in noisy_calls] == [(64, measured)] * len(reports)
    zeros = "0" * len(measured)
    assert [r.p_measured for r in reports] == [c.get(zeros, 0) / 64 for _, _, c in noisy_calls]


POINT_RUNS = {  # task -> its reports at n = 2 under the given sampling settings
    "racbem-bench": lambda **kw: [racbem_benchmark(2, 11, **kw)],
    "linpack": lambda **kw: [linpack_run(2.0, 2, 6, 11, **kw)],
    "spectral": lambda **kw: spectral_run(2, 13, (0.2, 0.5), lengths=5, **kw).reports,
    "timeseries": lambda **kw: time_series_run(2, 3, (1.0, 2.0), (3, 5), (3, 3), (1.0, 1.5),
                                               (1.0, 1.0), **kw).reports,
}
MODES = {"exact": {"shots": 0}, "sampled": {"shots": 64}, "noisy": {"shots": 64, "sigma": 0.5}}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("task", POINT_RUNS)
def test_every_point_report_comes_from_one_point_call(task, mode, monkeypatch):
    made = []
    point = tasks._Measure.point
    monkeypatch.setattr(tasks._Measure, "point",
                        lambda self, *a: made.append(point(self, *a)) or made[-1])
    model = _metts_noise_model() if mode == "noisy" else None
    reports = POINT_RUNS[task](noise_model=model, **MODES[mode])
    assert len(made) == len(reports) and all(r is m for r, m in zip(reports, made))
    # the run's settings come last, after the point's own params
    run_keys = ["shots", "sigma"] + (["noise_coverage"] if model else [])
    for r in reports:
        assert list(r.params)[-len(run_keys):] == run_keys
        assert r.params["shots"] == MODES[mode]["shots"]


def test_metts_noisy_law_computed_once_per_key(monkeypatch):
    real = noise._run
    passes = []
    monkeypatch.setattr(noise, "_run", lambda *a: passes.append(1) or real(*a))
    metts_run(1.0, 20, 2, seed=6, shots=64, noise_model=_metts_noise_model(), sigma=1.0)
    # 2 circuits x 4 basis inputs on the ancillas, plus the collapse
    # circuit on all qubits from each of the 4 inputs
    assert 0 < len(passes) <= 2 * 4 + 4


def test_not_leaf_fused_once_per_circuit_exact_and_once_per_model_noisy(monkeypatch):
    # the open-controlled NOT that every phase group shares is fused once per
    # circuit in exact mode, where its blocks are kept on the leaf, and once
    # per noise model on rho across all of a run's circuits, since the model
    # keeps blocks by part value
    nots = ((G.x(1),), (G.cnot(1, 0),), (G.x(1),))
    real = statevector._fuse
    fused = []

    def counting(layers, *a):
        fused.append(layers := tuple(layers))
        return real(layers, *a)

    monkeypatch.setattr(statevector, "_fuse", counting)
    kw = dict(energies=(0.3, 0.5, 0.7), lengths=5)
    assert len(spectral_run(2, 3, **kw).reports) == 3
    assert fused.count(nots) == 3
    fused.clear()
    spectral_run(2, 3, **kw, shots=16, noise_model=_metts_noise_model())
    assert fused.count(nots) == 1


def test_metts_ideal_sampled_law_computed_once_per_key(monkeypatch):
    calls = []
    monkeypatch.setattr(tasks, "apply", lambda *a: calls.append(1) or apply(*a))
    metts_run(1.0, 20, 2, seed=6, shots=64)
    # as in the noisy chain: 2 circuits x 4 inputs, plus 4 collapse inputs
    assert 0 < len(calls) <= 2 * 4 + 4


def test_metts_exact_matches_block_columns(monkeypatch):
    # reference: column i of a QSVT block is the circuit on basis state i
    # with both ancillas read at zero
    recorded = []  # (input index, measured count, weights) per call
    weights = tasks._Measure.weights

    def spy(self, circuit, shots, measured, input_state):
        w = weights(self, circuit, shots, measured, input_state)
        recorded.append((int(np.abs(input_state.amplitudes).argmax()), len(measured), w))
        return w

    monkeypatch.setattr(tasks._Measure, "weights", spy)
    ua, q = generate_instance(2, 15), canonical_quadratic()
    for beta in (1.0, 4.0, 8.0):
        recorded.clear()
        trace, report = metts_run(beta, 60, 2, seed=15, shots=0)
        d_num, d_den = tasks._default_metts_lengths(beta)
        f_num, _ = fit_scaled(odd_gibbs(beta), d_num, "odd", (0.0, 1.0))
        num = np.abs(block_of(tasks._qsvt_for(ua, f_num, allow_odd=True)[0])) ** 2
        den = np.abs(block_of(tasks._point(ua, q, gibbs(beta), d_den)[0])) ** 2
        ratio = report.params["scale_num"] ** 2 / report.params["scale_den"] ** 2
        want = ratio * num.sum(axis=0) / den.sum(axis=0)
        assert np.allclose(trace.energies, want[list(trace.states)], rtol=1e-12, atol=0)
        collapses = [(i, w) for i, m, w in recorded if m == 4]
        assert len(collapses) == 60
        for i, w in collapses:
            assert np.allclose(w[:4], den[:, i], rtol=0, atol=1e-12)


def test_metts_noisy_cached_law_matches_fresh_law(monkeypatch):
    nm = _metts_noise_model()
    cached, _ = metts_run(1.0, 20, 2, seed=6, shots=64, noise_model=nm, sigma=1.0)
    assert nm._laws == {}  # the run caches on its own scaled model
    real = tasks.sample_noisy_counts

    def fresh(c, model, *rest):
        return real(c, NoiseModel(model.gate_errors, model.readout), *rest)

    monkeypatch.setattr(tasks, "sample_noisy_counts", fresh)
    uncached, _ = metts_run(1.0, 20, 2, seed=6, shots=64, noise_model=nm, sigma=1.0)
    assert _chain(cached) == _chain(uncached)


def _denominator_circuit(beta, n, seed):
    q = canonical_quadratic()
    g = fit_on_interval(gibbs(beta), tasks._default_metts_lengths(beta)[1] // 2, (q.a0, q.a0 + q.a2))
    qc, _ = tasks._qsvt_for(generate_instance(n, seed), compose_fit(g, q))
    return qc.circuit


def test_metts_sampled_collapse_follows_exact_column():
    # ideal-sampled transitions from each state i follow |U_den[:dim, i]|^2,
    # the column the exact mode draws from; one chi-square pooled over i
    dim = 4
    U = circuit_unitary(_denominator_circuit(1.0, 2, 15))
    col = np.abs(U[:dim, :dim]) ** 2
    trace, _ = metts_run(1.0, 400, 2, seed=15, shots=1)
    assert trace.resamples == 0
    obs = np.zeros((dim, dim))
    np.add.at(obs, (trace.next_states, trace.states), 1)
    exp = col / col.sum(axis=0) * obs.sum(axis=0)
    assert obs[exp < 1e-9].sum() == 0
    chi2 = dof = 0
    for o, e in zip(obs.T, exp.T):
        big = e >= 5  # cells expected below 5 are pooled into one
        o, e = np.append(o[big], o[~big].sum()), np.append(e[big], e[~big].sum())
        if e[-1] < 1e-9:
            o, e = o[:-1], e[:-1]
        chi2 += ((o - e) ** 2 / e).sum()
        dof += len(e) - 1
    assert dof >= 3 and stats.chi2.sf(chi2, dof) > 0.01
    # the chain does leave its states, so the off-diagonal law is exercised
    assert (obs * (1 - np.eye(dim))).sum() >= 5


def test_phase_residual_flag(monkeypatch):
    _, report = metts_run(1.0, 5, 2, seed=15, shots=0)
    assert report.params["converged"] is True
    # the beta = 8 numerator fit (d = 7) peaks above 1 between sampled grid
    # points; the exact bound folds the peak into the scale, so phases exist
    _, report = metts_run(8.0, 5, 2, seed=15, shots=0)
    assert report.params["residual_num"] <= CONVERGED_L
    assert report.params["converged"] is True
    assert linpack_run(2.0, 2, 6, 11).params["converged"] is True
    # a solve that stalls is flagged
    optimize = tasks.optimize
    monkeypatch.setattr(tasks, "optimize", lambda f: (optimize(f)[0], 1e3 * CONVERGED_L))
    assert linpack_run(2.0, 2, 6, 11).params["converged"] is False
    _, report = metts_run(1.0, 5, 2, seed=15, shots=0)
    assert report.params["converged"] is False


def test_noise_coverage_reported_and_checked():
    nm = _metts_noise_model()
    _, noisy = metts_run(1.0, 3, 2, seed=6, shots=16, noise_model=nm, sigma=1.0)
    assert noisy.params["noise_coverage"] == pytest.approx(1.0)
    res = spectral_run(2, 3, energies=(0.5,), lengths=5, shots=16, noise_model=nm, sigma=1.0)
    assert res.reports[0].params["noise_coverage"] == pytest.approx(1.0)
    _, exact = metts_run(1.0, 3, 2, seed=6, shots=0, noise_model=nm, sigma=1.0)
    assert "noise_coverage" not in exact.params
    assert exact.params["sigma"] == 0.0 and noisy.params["sigma"] == 1.0
    # a model for another register covers none of the gates
    stray = NoiseModel(gate_errors={("cnot", (7, 8)): {"ii": 0.9, "xx": 0.1}})
    with pytest.raises(ValueError, match="no error entry"):
        linpack_run(2.0, 2, 6, 11, shots=16, noise_model=stray, sigma=0.5)
    quiet = linpack_run(2.0, 2, 6, 11, shots=16, noise_model=stray, sigma=0.0)
    assert "noise_coverage" not in quiet.params


def test_noise_model_scaled_once_per_run(monkeypatch):
    scaled = []
    scale = tasks.scale_noise
    monkeypatch.setattr(tasks, "scale_noise", lambda m, sigma: scaled.append(sigma) or scale(m, sigma))
    res = spectral_run(2, 3, energies=(0.3, 0.5, 0.7), lengths=5, shots=16,
                       noise_model=_metts_noise_model(), sigma=0.5)
    assert all(r.params["noise_coverage"] == pytest.approx(1.0) for r in res.reports)
    assert scaled == [0.5]


def test_metts_validation():
    with pytest.raises(ValueError):
        metts_run(-1.0, 10, 2, 0)
    with pytest.raises(ValueError):
        metts_run(1.0, 0, 2, 0)
    with pytest.raises(ValueError):
        metts_run(1.0, 10, 2, 0, d_num=4)  # even numerator degree
    with pytest.raises(ValueError, match="even degree >= 2"):
        metts_run(1.0, 10, 2, 0, d_den=3)  # odd denominator degree


def test_write_cma_csv(tmp_path):
    trace, _ = metts_run(1.0, 10, 2, seed=15, shots=0)
    path = tmp_path / "cma.csv"
    with path.open("w", newline="") as fh:
        write_cma_csv(trace, fh)
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == 10
    assert float(rows[-1]["cma"]) == pytest.approx(trace.estimate)
    assert int(rows[0]["step"]) == 1
