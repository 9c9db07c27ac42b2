import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from racbem import gates as G
from racbem import statevector
from racbem.blockenc import build_canonical_hracbem, extract_block
from racbem.generator import (
    GeneratorConfig,
    generate_block_encoding,
    linear_coupling_map,
    load_coupling_map,
)
from racbem.phasefactors import PhaseFactors
from racbem.qsvt import build
from racbem.statevector import (
    CountsHistogram,
    StateVector,
    _run,
    apply,
    circuit_unitary,
    marginal_probabilities,
    sample_from_probs,
    success_probability_exact,
)
from conftest import random_ua
from test_gates import random_circuit, shifted


def test_zero_and_basis_states():
    z = StateVector.zero(2)
    assert z.amplitudes[0] == 1
    b = StateVector.basis(2, 3)
    assert b.amplitudes[3] == 1
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))  # not normalized


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_apply_matches_unitary(seed):
    c = random_circuit(seed)
    U = circuit_unitary(c)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    out = apply(c, StateVector(3, v))
    assert np.allclose(out.amplitudes, U @ v, atol=1e-12)


def _full_register(g: G.Gate, n: int):
    """The 2^n x 2^n matrix of one gate, sparse so that a 15-qubit register
    fits: column j maps to the rows j with the gate's bits rewritten."""
    cols = np.arange(2**n)
    if g.kind == "cnot":
        c, t = (n - 1 - q for q in g.qubits)  # bit positions, qubit 0 the MSB
        rows, vals = cols ^ (((cols >> c) & 1) << t), np.ones(2**n)
    else:
        s, u = n - 1 - g.qubits[0], G.gate_unitary(g)
        bit = (cols >> s) & 1
        rows = np.concatenate([cols & ~(1 << s), cols | (1 << s)])
        vals, cols = np.concatenate([u[0, bit], u[1, bit]]), np.tile(cols, 2)
    return sp.csr_array((vals, (rows, cols)), shape=(2**n, 2**n))


def _dense_reference(c: G.QuantumCircuit, x: np.ndarray) -> np.ndarray:
    """The circuit applied to the columns of x, one full-register matrix per gate."""
    for g in c.gates():
        x = _full_register(g, c.n_qubits) @ x
    return x


def _random_state(n: int, rng) -> np.ndarray:
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def _check_against_reference(c: G.QuantumCircuit, seed: int = 0):
    n = c.n_qubits
    ref = _dense_reference(c, np.eye(2**n))
    assert np.abs(circuit_unitary(c) - ref).max() < 1e-12
    v = _random_state(n, np.random.default_rng(seed))
    assert np.abs(apply(c, StateVector(n, v)).amplitudes - ref @ v).max() < 1e-12


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_kernel_matches_dense_reference_descending_cnots(seed):
    """Adjacent CNOTs in both directions, with one-qubit runs between."""
    rng = np.random.default_rng(seed)
    n = 4
    gates = []
    for _ in range(30):
        if rng.random() < 0.4:
            lo = int(rng.integers(n - 1))
            gates.append(G.cnot(lo + 1, lo) if rng.random() < 0.5 else G.cnot(lo, lo + 1))
        else:
            kind = str(rng.choice(sorted(G.ONE_QUBIT_KINDS)))
            params = tuple(rng.uniform(0, 2 * np.pi, G.GATE_KINDS[kind]))
            gates.append(G.Gate(kind, (int(rng.integers(n)),), params))
    _check_against_reference(G.from_gates(n, gates), seed)


def test_kernel_matches_dense_reference_non_adjacent_cnots():
    c = G.from_gates(3, [G.h(0), G.u3(2, 0.3, 1.1, -0.4), G.cnot(0, 2), G.t(0),
                         G.cnot(2, 0), G.u2(1, 0.2, 0.9)])
    _check_against_reference(c)
    cfg = GeneratorConfig(load_coupling_map("t5"), depth=8, seed=4)
    t5 = generate_block_encoding(cfg, 4).circuit
    assert any(g.kind == "cnot" and abs(g.qubits[0] - g.qubits[1]) > 1 for g in t5.gates())
    _check_against_reference(t5, 4)


def test_kernel_matches_dense_reference_open_runs_and_idle_qubit():
    # qubit 3 is never touched, qubit 2 never meets a two-qubit gate, and
    # the runs on qubits 0 and 1 after the CNOT are still open at the end
    c = G.from_gates(4, [G.u3(2, 0.7, 0.1, 0.2), G.h(0), G.cnot(1, 0), G.x(0), G.sdg(0),
                         G.rz(2, 1.3), G.u1(1, 0.4), G.t(2)])
    _check_against_reference(c)


def test_kernel_zero_qubit_circuit():
    c = G.QuantumCircuit(0)
    assert circuit_unitary(c).tolist() == [[1]]
    assert apply(c, StateVector.zero(0)).amplitudes.tolist() == [1]


def test_kernel_multi_column_input():
    c = random_circuit(5, n_qubits=4, n_gates=25)
    x = np.random.default_rng(5).normal(size=(16, 3)) + 0j
    assert np.abs(_run(c, x) - _dense_reference(c, x)).max() < 1e-12


def test_kernel_matches_dense_reference_on_assembled_circuits(monkeypatch):
    # assembled circuits run part by part; every leaf is fused once however
    # often it recurs, in one circuit or several, and U_A and U_A^dag at
    # offset 1 take U_A's own blocks: nothing but a leaf is ever fused
    fused = []
    fuse = statevector._fuse
    monkeypatch.setattr(statevector, "_fuse", lambda ls, d, mat: fused.append(ls) or fuse(ls, d, mat))
    ua = random_ua(2, 21)
    rng = np.random.default_rng(21)
    circuits = [build(ua, PhaseFactors(tuple(rng.uniform(0, 2 * np.pi, k)), "varphi"),
                      allow_odd=True).circuit for k in (7, 4)]
    circuits.append(build_canonical_hracbem(ua).circuit)
    for k, c in enumerate(circuits):
        _check_against_reference(c, k)
        x = rng.normal(size=(2**c.n_qubits, 3)) + 1j * rng.normal(size=(2**c.n_qubits, 3))
        assert np.abs(_run(c, x) - _dense_reference(c, x)).max() < 1e-12
    extract_block(ua)
    assert len({id(ls) for ls in fused}) == len(fused)
    assert sum(ls is ua.circuit.layers for ls in fused) == 1
    leaves = {id(p.layers) for c in circuits for p, _, _ in c.parts}
    assert all(id(ls) in leaves for ls in fused)


@pytest.mark.parametrize("coupling", ["linear", "t5"])
def test_shifted_blocks_are_those_of_ua(coupling):
    # U_A^dag's derived blocks are U_A's, daggered in reverse order and moved
    # up one site, and apply what a fresh fusion of the shifted adjoint does
    for seed in range(4):
        if coupling == "t5":
            ua = generate_block_encoding(GeneratorConfig(load_coupling_map("t5"), depth=10, seed=seed), 4)
        else:
            ua = random_ua(5, seed)
        n = ua.circuit.n_qubits + 1
        own = statevector._fused(ua.circuit, 2, G.gate_unitary, None)
        assert any(len(qs) > 1 for _, qs in own)
        for dagger, fresh, want in [
            (False, shifted(ua.circuit, 1, n), own),
            (True, shifted(G.adjoint(ua.circuit), 1, n),
             [(u.conj().T, qs) for u, qs in reversed(own)]),
        ]:
            kept = statevector._ideal(ua.circuit, 1, dagger)
            assert kept is statevector._ideal(ua.circuit, 1, dagger)
            assert [qs for _, qs in kept] == [tuple(q + 1 for q in qs) for _, qs in want]
            assert all(np.array_equal(u, v) for (u, _), (v, _) in zip(kept, want))
            eye = np.eye(2**n, dtype=complex)
            derived = statevector._apply(kept, eye, 2)
            assert np.abs(derived - statevector._apply(statevector._fuse(fresh.layers, 2, G.gate_unitary), eye, 2)).max() < 1e-12
            assert np.abs(derived - _dense_reference(fresh, eye)).max() < 1e-12


def _check_columns(c: G.QuantumCircuit, seed: int):
    """_run against the dense reference on one column and on three."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2**c.n_qubits, 3)) + 1j * rng.normal(size=(2**c.n_qubits, 3))
    ref = _dense_reference(c, x)
    assert np.abs(_run(c, x) - ref).max() < 1e-12
    assert np.abs(_run(c, x[:, 0]) - ref[:, 0]).max() < 1e-12


def _sites(c: G.QuantumCircuit) -> list:
    return [qs for _, qs in statevector._fuse(c.layers, 2, G.gate_unitary)]


@pytest.mark.parametrize("q", range(6))
def test_kernel_matches_dense_reference_on_every_pair(q):
    # with one column, the pairs from q = 3 up have fewer amplitudes right of
    # the pair than left of it and take the one-product path
    n = 7
    c = G.from_gates(n, [G.h(q), G.u3(q + 1, 0.3, 0.8, -1.2), G.cnot(q + 1, q), G.t(q),
                         G.cnot(q, q + 1), G.u2(q + 1, 0.4, 0.1), G.sdg(q)])
    _check_against_reference(c, q)
    x = np.random.default_rng(q).normal(size=(2**n, 2)) + 0j
    assert np.abs(_run(c, x) - _dense_reference(c, x)).max() < 1e-12


@pytest.mark.parametrize("q", range(4))
def test_kernel_four_site_merge_at_every_position(q):
    # two disjoint pairs joined by the pair between them merge into one
    # 16 x 16 block on q..q+3; with one column the blocks from q = 2 up
    # have fewer amplitudes right of them than left and take one product
    n = 7
    c = G.from_gates(n, [G.h(q), G.cnot(q, q + 1), G.u3(q + 2, 0.3, 0.8, -1.2),
                         G.cnot(q + 3, q + 2), G.cnot(q + 1, q + 2), G.t(q + 1),
                         G.cnot(q + 2, q + 3), G.u2(q + 3, 0.4, 0.1), G.sdg(q)])
    assert _sites(c) == [tuple(range(q, q + 4))]
    _check_against_reference(c, q)
    _check_columns(c, q)


def test_kernel_merge_needs_open_blocks():
    # the 4-site block on 0..3 cannot take (3, 4) (five sites), and once
    # (3, 4) follows it on site 3 it is no longer open: the last (2, 3) may
    # not move it past (3, 4), while (3, 4), open, merges into (2, 3, 4)
    c = G.from_gates(5, [G.h(0), G.cnot(0, 1), G.cnot(1, 2), G.cnot(2, 3),
                         G.u3(3, 0.3, 0.2, 0.1), G.cnot(3, 4), G.t(4), G.cnot(2, 3),
                         G.u2(0, 0.5, 0.6)])
    assert _sites(c) == [(0, 1, 2, 3), (2, 3, 4)]
    _check_against_reference(c, 5)
    _check_columns(c, 5)


def test_kernel_pair_folds_back_into_a_closed_block():
    # (3, 4) closes the block on 0..3, but nothing after it touches sites
    # 1 and 2, so t(2), the (2, 1) pair and u2(0) fold back into it
    c = G.from_gates(5, [G.h(1), G.cnot(0, 1), G.cnot(2, 3), G.cnot(1, 2),
                         G.u3(3, 0.3, 0.2, 0.1), G.cnot(3, 4), G.t(2), G.cnot(2, 1),
                         G.u2(0, 0.5, 0.6)])
    assert _sites(c) == [(0, 1, 2, 3), (3, 4)]
    _check_against_reference(c, 7)
    _check_columns(c, 7)


def test_kernel_non_adjacent_pair_joins_a_block():
    # t5's (1, 3) pair merges the open pairs on (1, 2) and (3, 4) into one
    # contiguous block on 1..4, and the gates after it fold back in
    c = G.from_gates(5, [G.h(1), G.cnot(1, 2), G.u3(4, 0.3, 0.2, 0.1), G.cnot(4, 3),
                         G.cnot(3, 1), G.t(2), G.cnot(2, 1), G.cnot(3, 4),
                         G.u2(1, 0.5, 0.6)])
    assert _sites(c) == [(1, 2, 3, 4)]
    _check_against_reference(c, 6)
    _check_columns(c, 6)
    for seed in (2, 9, 16):
        t5 = generate_block_encoding(GeneratorConfig(load_coupling_map("t5"), depth=10, seed=seed), 4).circuit
        # some non-adjacent pair of the circuit lands inside a larger block
        far = [g for g in t5.gates() if len(g.qubits) == 2 and abs(g.qubits[0] - g.qubits[1]) > 1]
        assert sum(qs[-1] - qs[0] >= len(qs) for qs in _sites(t5)) < len(far)
        _check_against_reference(t5, seed)
        _check_columns(t5, seed)


@pytest.mark.parametrize("coupling, count", [("linear", 20), ("t5", 20), ("ladder15", 10)])
def test_kernel_matches_dense_reference_on_random_maps(coupling, count):
    # seeded circuits of random depth and CNOT share; every fused block is
    # contiguous (or a non-adjacent pair) and at most 16 x 16
    rng = np.random.default_rng(count + len(coupling))
    for k in range(count):
        if coupling == "linear":
            cmap = linear_coupling_map(int(rng.integers(3, 8)))
        else:
            cmap = load_coupling_map(coupling)
        depth = int(rng.integers(3, 6 if coupling == "ladder15" else 16))
        cfg = GeneratorConfig(cmap, float(rng.uniform(0.2, 0.9)), depth, int(rng.integers(10**6)))
        c = generate_block_encoding(cfg, cmap.n_qubits - 1).circuit
        for u, qs in statevector._fuse(c.layers, 2, G.gate_unitary):
            assert len(u) == 2 ** len(qs) <= statevector.BLOCK_DIM_CAP
            assert qs == tuple(range(qs[0], qs[-1] + 1)) or len(qs) == 2
        _check_columns(c, k)


def test_kernel_block_of_generated_instance():
    be = random_ua(8, 0)
    block = extract_block(be)
    cols = np.arange(0, 2**8, 51)  # the dense reference costs one 512x512 product per gate
    ref = _dense_reference(be.circuit, np.eye(2**9)[:, cols])[: 2**8]
    assert np.abs(block[:, cols] - ref).max() < 1e-12


def test_extract_block_is_top_left_of_unitary():
    be = random_ua(3, 2)
    block = extract_block(be)
    assert block.shape == (8, 8)
    assert np.abs(block - circuit_unitary(be.circuit)[:8, :8]).max() < 1e-12


def test_qubit0_is_msb():
    # X on qubit 0 of a 2-qubit register maps |00> to |10> = index 2
    c = G.from_gates(2, [G.x(0)])
    out = apply(c, StateVector.zero(2))
    assert abs(out.amplitudes[2]) == pytest.approx(1.0)


def test_unitary_cap():
    with pytest.raises(ValueError):
        circuit_unitary(G.QuantumCircuit(13))


def test_success_probability_and_postselect_agree():
    c = random_circuit(7)
    s = apply(c, StateVector.zero(3))
    p = success_probability_exact(c, 1, StateVector.zero(3))
    assert marginal_probabilities(s, [0])[0] == pytest.approx(p)


def test_marginal_probabilities_order():
    # state |01>: qubit 0 = 0, qubit 1 = 1
    s = StateVector.basis(2, 1)
    assert np.allclose(marginal_probabilities(s, [0, 1]), [0, 1, 0, 0])
    assert np.allclose(marginal_probabilities(s, [1, 0]), [0, 0, 1, 0])
    assert np.allclose(marginal_probabilities(s, [1]), [0, 1])
    # a cyclic order: |100> read as (q2, q0, q1) is 010
    s = StateVector.basis(3, 4)
    assert np.allclose(marginal_probabilities(s, [2, 0, 1]), np.eye(8)[2])


def test_sample_from_probs_deterministic(rng):
    probs = np.array([0.25, 0.75])
    a = sample_from_probs(probs, 100, np.random.default_rng(3))
    b = sample_from_probs(probs, 100, np.random.default_rng(3))
    assert np.array_equal(a.draws, b.draws)
    assert a.counts == b.counts


def test_sample_from_probs_is_one_multinomial():
    # the counts are rng.multinomial's draw on the same seed, and leave the
    # generator where that draw leaves it
    for seed in range(20):
        gen = np.random.default_rng([seed, 0])
        dim = 2 ** int(gen.integers(1, 6))
        probs = gen.random(dim) * (gen.random(dim) < 0.7)  # some outcomes impossible
        probs[gen.integers(dim)] += 0.1
        shots = int(gen.integers(1, 500))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        h = sample_from_probs(probs, shots, a)
        assert np.array_equal(h.draws, b.multinomial(shots, probs / probs.sum()))
        assert h.shots == shots
        assert a.random() == b.random()


def test_counts_histogram_round_trip():
    h = CountsHistogram(np.array([3, 0, 0, 5]))
    assert h.shots == 8
    assert h.counts == {"00": 3, "11": 5}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_counts_are_the_bitstrings_of_the_draws(n):
    # the dict keeps the earlier bitstring format (qubit 0 written first),
    # with outcomes never drawn left out
    draws = np.random.default_rng(n).multinomial(3 * 2**n, np.full(2**n, 2.0**-n))
    draws[n % len(draws)] = 0
    want = {format(i, f"0{n}b"): int(k) for i, k in enumerate(draws) if k > 0}
    assert CountsHistogram(draws).counts == want
    assert all(len(bits) == n for bits in want)
    assert len(want) < 2**n
