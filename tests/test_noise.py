import functools

import numpy as np
import pytest
from scipy import stats

from racbem import gates as G
from racbem import statevector
from racbem.gates import gate_unitary
from racbem.generator import (
    GeneratorConfig,
    generate_block_encoding,
    linear_coupling_map,
    load_coupling_map,
)
from racbem.noise import (
    PAULI_1Q,
    PAULI_2Q,
    NoiseModel,
    coverage,
    outcome_distribution,
    sample_noisy_counts,
    scale,
    scale_dist,
    synth_model,
)
from racbem.qsvt import build
from racbem.statevector import UNITARY_QUBIT_CAP, StateVector, apply, marginal_probabilities
from conftest import random_ua
from test_qsvt import phases_for
from test_statevector import _full_register, _random_state


def test_scale_dist_worked_example():
    # error distribution [i: 0.90, x: 0.06, z: 0.04] at sigma = 0.5
    # becomes [0.95, 0.03, 0.02] exactly
    out = scale_dist({"i": 0.90, "x": 0.06, "z": 0.04}, 0.5, 1)
    assert out["i"] == pytest.approx(0.95)
    assert out["x"] == pytest.approx(0.03)
    assert out["z"] == pytest.approx(0.02)


def test_scale_endpoints():
    m = NoiseModel(
        gate_errors={("x", (0,)): {"i": 0.9, "x": 0.1}},
        readout={0: ((0.97, 0.03), (0.05, 0.95))},
    )
    z = scale(m, 0.0)
    assert z.gate_errors[("x", (0,))]["i"] == pytest.approx(1.0)
    assert z.readout[0][0][0] == pytest.approx(1.0)
    full = scale(m, 1.0)
    assert full.gate_errors[("x", (0,))] == m.gate_errors[("x", (0,))]
    with pytest.raises(ValueError):
        scale(m, 1.5)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(gate_errors={("x", (0,)): {"i": 0.5, "x": 0.6}})  # sums to 1.1
    with pytest.raises(ValueError):
        NoiseModel(gate_errors={("x", (0,)): {"i": 0.4, "x": 0.6}})  # error > correct
    with pytest.raises(ValueError):
        NoiseModel(gate_errors={("x", (0,)): {"q": 1.0}})
    with pytest.raises(ValueError):
        NoiseModel(readout={0: ((0.5, 0.6), (0.0, 1.0))})


def test_json_round_trip():
    m = synth_model(linear_coupling_map(3), 0.01, 0.05, 0.02, np.random.default_rng(0))
    assert NoiseModel.from_json(m.to_json()) == m
    assert scale(m, 0.5) != m
    # the channel table built from gate_errors is neither compared nor shown
    assert "_channels" not in repr(m) and "array" not in repr(m)


def test_synth_model_structure():
    coupling = linear_coupling_map(3)
    m = synth_model(coupling, 0.01, 0.05, 0.02, np.random.default_rng(1))
    cnot_keys = {k for k in m.gate_errors if k[0] == "cnot"}
    assert {q for _, q in cnot_keys} == coupling.edges
    for q in range(3):
        r = m.readout[q]
        assert r[0][1] == pytest.approx(r[1][0])
    with pytest.raises(ValueError):
        synth_model(coupling, 0.6, 0.0, 0.0, np.random.default_rng(0))


def test_sigma_zero_reproduces_ideal_distribution():
    c = G.from_gates(2, [G.h(0), G.cnot(0, 1)])
    m = synth_model(linear_coupling_map(2), 0.05, 0.1, 0.05, np.random.default_rng(2))
    shots = 4096
    counts = sample_noisy_counts(c, scale(m, 0.0), shots, [0, 1], np.random.default_rng(7))
    ideal = marginal_probabilities(apply(c, StateVector.zero(2)), [0, 1])
    emp = np.array([counts.counts.get(format(i, "02b"), 0) / shots for i in range(4)])
    tv = 0.5 * np.abs(emp - ideal).sum()
    assert tv < 4 * np.sqrt(4 / shots) / 2


def test_readout_confusion_flips_bits():
    # circuit leaves |0>; readout that always flips reads "1"
    m = NoiseModel(readout={0: ((0.0, 1.0), (1.0, 0.0))})
    c = G.from_gates(1, [])
    counts = sample_noisy_counts(c, m, 64, [0], np.random.default_rng(0))
    assert counts.counts == {"1": 64}


def test_pauli_error_applied():
    # X-after-gate error with probability ~1 flips the measured bit
    m = NoiseModel(gate_errors={("h", (0,)): {"i": 0.5, "x": 0.5}})
    c = G.from_gates(1, [G.h(0), G.h(0)])  # ideal identity
    counts = sample_noisy_counts(c, m, 2048, [0], np.random.default_rng(3))
    # each of the two h gates flips with p=0.5 after Hadamard basis change;
    # outcome should be a nontrivial mixture, not all zeros
    assert counts.counts.get("1", 0) > 0


def test_noisy_sampling_deterministic_given_rng():
    c = G.from_gates(1, [G.h(0)])
    m = synth_model(linear_coupling_map(1), 0.02, 0.0, 0.02, np.random.default_rng(5))
    a = sample_noisy_counts(c, m, 256, [0], np.random.default_rng(9))
    b = sample_noisy_counts(c, m, 256, [0], np.random.default_rng(9))
    assert a.counts == b.counts


def test_closed_form_single_gate_law():
    # |1> survives the x-gate error with 0.9; read 1 = 0.9 * 0.95 + 0.1 * 0.03
    m = NoiseModel(
        gate_errors={("x", (0,)): {"i": 0.9, "x": 0.1}},
        readout={0: ((0.97, 0.03), (0.05, 0.95))},
    )
    probs = outcome_distribution(G.from_gates(1, [G.x(0)]), m, [0], StateVector.zero(1))
    assert probs[1] == pytest.approx(0.858, abs=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_cached_law_is_read_only():
    m = synth_model(linear_coupling_map(2), 0.02, 0.05, 0.02, np.random.default_rng(1))
    c = G.from_gates(2, [G.x(0), G.h(1)])
    law = outcome_distribution(c, m, [0, 1], StateVector.zero(2))
    with pytest.raises(ValueError):
        law[0] = 1.0
    again = outcome_distribution(c, m, [0, 1], StateVector.zero(2))
    assert np.array_equal(again, law)
    # another input or measured order is another law
    assert not np.array_equal(outcome_distribution(c, m, [0, 1], StateVector.basis(2, 2)), law)
    swapped = outcome_distribution(c, m, [1, 0], StateVector.zero(2))
    assert not np.allclose(swapped, law) and np.allclose(swapped, law[[0, 2, 1, 3]], atol=1e-12)


_PAULI = {"i": np.eye(2), "x": np.array([[0, 1], [1, 0]]), "y": np.array([[0, -1j], [1j, 0]]),
          "z": np.diag([1, -1])}


def _pauli_register(factors: dict, n: int) -> np.ndarray:
    """The Pauli string {qubit: label} as a 2^n x 2^n matrix, by np.kron."""
    return functools.reduce(np.kron, [_PAULI[factors.get(q, "i")] for q in range(n)])


def _dense_law(c, model, measured, v) -> np.ndarray:
    """Full-register reference law: rho -> sum_P p (P U) rho (P U)^dagger
    for each gate, then each measured bit read through its readout row."""
    n, k = c.n_qubits, len(measured)
    rho = np.outer(v, v.conj())
    for g in c.gates():
        u = _full_register(g, n).toarray()
        dist = model.gate_errors.get((g.kind, g.qubits), {"i" * len(g.qubits): 1.0})
        pus = [(p, _pauli_register(dict(zip(g.qubits, lab)), n) @ u) for lab, p in dist.items()]
        rho = sum(p * pu @ rho @ pu.conj().T for p, pu in pus)
    rows = [model.readout.get(q, np.eye(2)) for q in measured]
    law = np.zeros(2**k)
    for i, p in enumerate(np.diagonal(rho).real):
        true = [(i >> (n - 1 - q)) & 1 for q in measured]
        for s in range(2**k):
            read = [(s >> (k - 1 - pos)) & 1 for pos in range(k)]
            law[s] += p * np.prod([r[b][o] for r, b, o in zip(rows, true, read)])
    return law


def _random_dist(labels, rng) -> dict[str, float]:
    """A distribution over the labels whose first (identity) entry is the largest."""
    w = rng.uniform(0.0, 1.0, len(labels))
    w[0] = w.sum()
    return dict(zip(labels, w / w.sum()))


def test_outcome_law_matches_dense_reference():
    rng = np.random.default_rng(11)
    # cnot(1, 0) descends, cnot(0, 2) skips a qubit, t(1) and u2(1) have no
    # model entry, and the runs on qubits 0 and 2 are open at the end
    c = G.from_gates(3, [G.h(0), G.u3(2, 0.7, 0.2, 1.1), G.cnot(1, 0), G.t(1),
                         G.cnot(0, 2), G.u2(1, 0.4, -0.3), G.rz(0, 0.9), G.h(2)])
    ge = {(g.kind, g.qubits): _random_dist(PAULI_1Q if len(g.qubits) == 1 else PAULI_2Q, rng)
          for g in c.gates() if g.kind not in ("t", "u2")}
    m = NoiseModel(ge, readout={2: ((0.93, 0.07), (0.11, 0.89))})
    v = _random_state(3, rng)
    for measured in ([2, 0], [0, 1, 2], [1]):
        law = outcome_distribution(c, m, measured, StateVector(3, v))
        assert np.abs(law - _dense_law(c, m, measured, v)).max() < 1e-12


def test_outcome_law_matches_dense_reference_on_t5_instance():
    coupling = load_coupling_map("t5")
    c = generate_block_encoding(GeneratorConfig(coupling, depth=8, seed=4), 4).circuit
    m = synth_model(coupling, 0.05, 0.15, 0.05, np.random.default_rng(3))
    v = _random_state(5, np.random.default_rng(4))
    for measured in ([3, 0, 4], [0, 1]):
        law = outcome_distribution(c, m, measured, StateVector(5, v))
        assert np.abs(law - _dense_law(c, m, measured, v)).max() < 1e-12


def test_warm_model_law_matches_fresh_model():
    # the model keeps each part's noisy blocks, so a second pass with another
    # input reads them; its law is a fresh model's and the dense reference's
    _, varphi = phases_for((0.2, 0.0, 0.5, 0.0, 0.2), "even")
    c = build(random_ua(2, seed=33), varphi).circuit
    m = synth_model(linear_coupling_map(4), 0.05, 0.15, 0.05, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    outcome_distribution(c, m, [0, 1], StateVector(4, _random_state(4, rng)))
    v = _random_state(4, rng)
    warm = outcome_distribution(c, m, [0, 1, 3], StateVector(4, v))
    fresh = outcome_distribution(c, NoiseModel(m.gate_errors, m.readout), [0, 1, 3],
                                 StateVector(4, v))
    assert np.abs(warm - fresh).max() < 1e-12
    assert np.abs(warm - _dense_law(c, m, [0, 1, 3], v)).max() < 1e-12


def test_noisy_blocks_span_at_most_two_sites():
    # on rho the block cap is two sites, while the same circuit's ideal
    # blocks grow to more; the law is the dense reference's
    _, varphi = phases_for((0.2, 0.0, 0.5, 0.0, 0.2), "even")
    c = build(random_ua(2, seed=33), varphi).circuit
    model = synth_model(linear_coupling_map(4), 0.05, 0.15, 0.05, np.random.default_rng(8))
    v = _random_state(4, np.random.default_rng(9))
    law = outcome_distribution(c, model, [0, 1, 3], StateVector(4, v))
    assert max(len(qs) for _, qs in statevector._fused(c, 4, model._block, model._blocks)) == 2
    assert max(len(qs) for _, qs in statevector._fused(c, 2, gate_unitary, None)) > 2
    assert np.abs(law - _dense_law(c, model, [0, 1, 3], v)).max() < 1e-12


def test_noiseless_law_is_ideal_marginal_on_qsvt_circuit():
    _, varphi = phases_for((0.2, 0.0, 0.5, 0.0, 0.2), "even")
    c = build(random_ua(2, seed=33), varphi).circuit
    inp = StateVector(4, _random_state(4, np.random.default_rng(6)))
    for measured in ([0, 1], [3, 0, 2]):
        ideal = marginal_probabilities(apply(c, inp), measured)
        assert np.abs(outcome_distribution(c, NoiseModel(), measured, inp) - ideal).max() < 1e-12


def _trajectory_counts(c, model, shots, rng):
    """Per-shot reference: after each gate apply a Pauli error drawn from
    its distribution; measure; flip each bit per its readout row."""
    n = c.n_qubits
    steps = []  # (gate tensor, qubits, error labels, their cumulative probabilities)
    for g in c.gates():
        dist = model.gate_errors.get((g.kind, g.qubits), {"i" * len(g.qubits): 1.0})
        steps.append((gate_unitary(g).reshape((2,) * 2 * len(g.qubits)), g.qubits,
                      list(dist), np.cumsum(list(dist.values()))))
    counts = np.zeros(2**n, dtype=int)
    for _ in range(shots):
        amps = StateVector.zero(n).amplitudes.reshape((2,) * n)
        for u, qs, labels, cdf in steps:
            k = len(qs)
            amps = np.moveaxis(np.tensordot(u, amps, axes=(range(k, 2 * k), qs)), range(k), qs)
            for p, q in zip(labels[min(np.searchsorted(cdf, rng.random()), len(labels) - 1)], qs):
                if p != "i":
                    amps = np.moveaxis(np.tensordot(_PAULI[p], amps, axes=([1], [q])), 0, q)
        out = np.searchsorted(np.cumsum(np.abs(amps.reshape(-1)) ** 2), rng.random())
        bits = [(int(out) >> (n - 1 - q)) & 1 for q in range(n)]
        bits = [b ^ int(rng.random() < model.readout[q][b][1 - b]) for q, b in enumerate(bits)]
        counts[int("".join(map(str, bits)), 2)] += 1
    return counts


def test_counts_follow_trajectory_law():
    # two-sample chi-square: one multinomial draw against per-shot trajectories
    c = G.from_gates(3, [G.h(0), G.cnot(0, 1), G.u3(2, 0.7, 0.2, 1.1), G.cnot(1, 2),
                         G.t(1), G.h(2), G.cnot(0, 1)])
    m = synth_model(linear_coupling_map(3), 0.05, 0.15, 0.05, np.random.default_rng(4))
    shots = 3000
    ref = _trajectory_counts(c, m, shots, np.random.default_rng(5))
    new = sample_noisy_counts(c, m, shots, [0, 1, 2], np.random.default_rng(6))
    got = np.array([new.counts.get(format(i, "03b"), 0) for i in range(8)])
    table = np.array([ref, got])
    table = table[:, table.sum(axis=0) > 0]
    assert stats.chi2_contingency(table).pvalue > 0.01
    # and the noise is resolved: the ideal law is far from both
    ideal = marginal_probabilities(apply(c, StateVector.zero(3)), [0, 1, 2])
    assert stats.chisquare(got, ideal * shots + 1e-9).pvalue < 1e-6


def test_noisy_sampler_rejects_oversized_register():
    c = G.QuantumCircuit(UNITARY_QUBIT_CAP + 1)
    with pytest.raises(ValueError):
        sample_noisy_counts(c, NoiseModel(), 1, [0], np.random.default_rng(0))


def test_coverage_share():
    m = NoiseModel(gate_errors={("h", (0,)): {"i": 0.9, "z": 0.1}})
    c = G.from_gates(2, [G.h(0), G.h(1), G.cnot(0, 1), G.h(0)])
    assert coverage(m, [c]) == pytest.approx(0.5)
    assert coverage(m, [c, G.from_gates(2, [G.x(1)])]) == pytest.approx(0.4)


def test_coverage_counts_parts_from_their_leaves(monkeypatch):
    # offsets and dagger kinds are read off each leaf, so no gate is placed;
    # the share equals the one over the placed gates
    ua = random_ua(2, 3)
    c = build(ua, phases_for((0.1, 0.0, 0.5), "even")[1]).circuit
    model = synth_model(linear_coupling_map(4), 0.01, 0.05, 0.02, np.random.default_rng(2))
    model = NoiseModel({k: v for i, (k, v) in enumerate(model.gate_errors.items()) if i % 3},
                       model.readout)
    keys = [(g.kind, g.qubits) for g in c.gates()]
    want = sum(k in model.gate_errors for k in keys) / len(keys)
    made = []
    init = G.Gate.__post_init__
    monkeypatch.setattr(G.Gate, "__post_init__", lambda g: made.append(g) or init(g))
    assert coverage(model, [c]) == want
    assert 0 < want < 1 and not made
