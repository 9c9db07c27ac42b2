import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from racbem import blockenc, gates as G
from racbem.blockenc import (
    BLOCK,
    BlockEncoding,
    alternate,
    build_canonical_hracbem,
    build_hracbem,
    extract_block,
    inverse_weight,
    phases_for_quadratic,
)
from racbem.chebpoly import QuadraticH, condition_bound, quadratic_for_condition
from racbem.generator import GeneratorConfig, generate_block_encoding, linear_coupling_map, load_coupling_map
from racbem.phasefactors import PhaseFactors
from racbem.qsvt import build
from racbem.statevector import _ideal, circuit_unitary
from racbem.tasks import _hermitian_matrix, generate_instance
from conftest import random_ua
from test_gates import shifted


def quad_coeffs(phi0, phi1):
    a2 = -2.0 * math.sin(2 * phi0) * math.sin(phi1)
    a0 = math.cos(2 * phi0 - phi1)
    return a2, a0


@pytest.mark.parametrize("varphi", [0.0, 0.37, -1.2])
def test_rotation_group_is_the_projector_controlled_phase(varphi):
    # parts 1-3 of a built circuit are the phase group of varphi_d:
    # exp(i varphi Z0 Z1) on signal q0 and ancilla q1, the system left alone
    c = alternate(random_ua(1, seed=2), (0.5, -0.8, varphi), "g")
    u = circuit_unitary(G.QuantumCircuit(3, parts=c.parts[1:4]))
    phase = np.exp(1j * varphi * np.array([1, -1, -1, 1]))
    assert np.abs(u - np.diag(np.repeat(phase, 2))).max() < 1e-14


@pytest.mark.parametrize("d", [0, 1, 6])
def test_phase_groups_share_one_not_leaf(d):
    # each group is (NOT, rz, NOT) around one shared open-controlled-NOT
    # leaf, with one H leaf at both ends: d + 3 distinct leaves beside U_A,
    # even when phases repeat
    ua = random_ua(2, seed=4)
    c = alternate(ua, (0.4,) * (d + 1), "g")
    leaves = [p for p, _, _ in c.parts if p is not ua.circuit]
    assert len({id(p) for p in leaves}) == d + 3
    h, nots = leaves[0], leaves[1]
    assert leaves[-1] is h and list(h.gates()) == [G.h(0)]
    assert list(nots.gates()) == [G.x(1), G.cnot(1, 0), G.x(1)]
    groups = [leaves[1 + 3 * k: 4 + 3 * k] for k in range(d + 1)]
    assert all(g[0] is nots and g[2] is nots and list(g[1].gates()) == [G.rz(0, 0.8)]
               for g in groups)


def test_hracbem_block_matches_formula():
    ua = random_ua(2, seed=5)
    A = extract_block(ua)
    phi0, phi1 = 0.4, -0.9
    a2, a0 = quad_coeffs(phi0, phi1)
    be = build_hracbem(ua, phi0, phi1)
    h = extract_block(be)
    want = a2 * (A.conj().T @ A) + a0 * np.eye(4)
    assert np.abs(h - want).max() < 1e-10
    assert np.abs(h - h.conj().T).max() < 1e-10
    # the Hermitian construction is the degree-2 alternating circuit
    qsvt = build(ua, PhaseFactors((phi0, phi1, phi0), "varphi"))
    assert list(be.circuit.gates()) == list(qsvt.circuit.gates())


def test_canonical_hracbem_is_a_dag_a():
    ua = random_ua(2, seed=8)
    A = extract_block(ua)
    h = extract_block(build_canonical_hracbem(ua))
    assert np.abs(h - A.conj().T @ A).max() < 1e-10


def _gate_level(n, pieces, name):
    """The pieces' layers copied into one gate-level circuit."""
    return G.QuantumCircuit(n, tuple(layer for p in pieces for layer in p.layers), name)


@pytest.mark.parametrize("coupling", ["linear", "t5"])
def test_assembled_circuits_read_as_gate_level_copies(coupling):
    # the circuits built from (part, offset, dagger) references read gate for
    # gate, in text and in counts, as the construction that copies U_A and
    # its adjoint, shifted one qubit up, into every slot
    if coupling == "t5":
        ua = generate_block_encoding(GeneratorConfig(load_coupling_map("t5"), depth=6, seed=3), 4)
    else:
        ua = random_ua(3, seed=3)
    n = ua.circuit.n_qubits + 1
    ua_s, uad_s = shifted(ua.circuit, 1, n), shifted(G.adjoint(ua.circuit), 1, n)
    varphi = (0.3, -1.1, 0.7, 2.0, -0.4, 0.9)
    d = len(varphi) - 1
    def group(v):
        return G.from_gates(n, [G.x(1), G.cnot(1, 0), G.x(1), G.rz(0, 2.0 * v),
                                G.x(1), G.cnot(1, 0), G.x(1)])

    pieces = [G.from_gates(n, [G.h(0)])]
    for j in range(d, 0, -1):
        pieces += [group(varphi[j]), ua_s if (d - j) % 2 == 0 else uad_s]
    pieces.append(G.from_gates(n, list(group(varphi[0]).gates()) + [G.h(0)]))
    canonical = [G.from_gates(n, [G.h(0), G.t(0)]), ua_s,
                 G.from_gates(n, [G.cnot(1, 0), G.sdg(0), G.cnot(1, 0)]), uad_s,
                 G.from_gates(n, [G.t(0), G.h(0)])]
    line = linear_coupling_map(n)
    for got, want in [(alternate(ua, varphi, "alt"), _gate_level(n, pieces, "alt")),
                      (build_canonical_hracbem(ua).circuit,
                       _gate_level(n, canonical, "canonical-hracbem"))]:
        assert got.parts and list(got.gates()) == list(want.gates())
        assert G.circuit_to_text(got) == G.circuit_to_text(want)
        assert list(G.gate_count(got).items()) == list(G.gate_count(want).items())
        assert got.depth == want.depth
        assert G.validate(got, line) == G.validate(want, line)
        assert (G.validate(got, line) != []) == (coupling == "t5")


def test_canonical_equals_phased_construction():
    ua = random_ua(1, seed=3)
    a = extract_block(build_canonical_hracbem(ua))
    b = extract_block(build_hracbem(ua, math.pi / 8, -math.pi / 4))
    assert np.abs(a - b).max() < 1e-10


@given(
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
)
@settings(max_examples=50, deadline=None)
def test_phases_for_quadratic_round_trip(a0, a2_raw):
    # keep a0 + a2 inside [-1, 1]
    a2 = a2_raw * (1.0 - abs(a0)) if abs(a0) < 1 else 0.0
    phi0, phi1 = phases_for_quadratic(a2, a0)
    a2c, a0c = quad_coeffs(phi0, phi1)
    assert a2c == pytest.approx(a2, abs=1e-9)
    assert a0c == pytest.approx(a0, abs=1e-9)


def test_phases_for_quadratic_rejects_infeasible():
    with pytest.raises(ValueError):
        phases_for_quadratic(1.5, 0.0)
    with pytest.raises(ValueError):
        phases_for_quadratic(0.0, 1.5)


def test_quadratic_for_condition():
    q = quadratic_for_condition(4.0)
    assert q(0.0) == pytest.approx(0.25)
    assert q(1.0) == pytest.approx(1.0)
    assert condition_bound(q) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        quadratic_for_condition(0.5)


def test_condition_bound_is_an_upper_bound():
    # eigenvalues of h(A) are h(sigma_i); their ratio is bounded by
    # h(1)/h(0) when h is positive increasing on [0, 1]
    ua = random_ua(2, seed=14)
    q = quadratic_for_condition(3.0)
    A = extract_block(ua)
    h = q.a2 * (A.conj().T @ A) + q.a0 * np.eye(4)
    lam = np.linalg.eigvalsh(h)
    assert lam.max() / lam.min() <= condition_bound(q) + 1e-9


def test_quadratic_validation():
    with pytest.raises(ValueError):
        QuadraticH(a2=1.0, a0=0.5)  # |a0 + a2| > 1


def test_build_rejects_multi_ancilla_input():
    ua = random_ua(2, seed=1)
    two = build_canonical_hracbem(ua)
    with pytest.raises(ValueError):
        build_hracbem(two, 0.1, 0.2)


def _dense_weight(ua, q):
    e0 = np.eye(2**ua.n_sys)[0]
    return np.linalg.norm(np.linalg.solve(_hermitian_matrix(ua, q), e0)) ** 2


def _weight_and_solves(monkeypatch, ua, q):
    """inverse_weight, and the size of each system it solves; no
    np.linalg.solve inside it sees more than BLOCK rows."""
    sizes, rows, solve, block_solve = [], [], np.linalg.solve, blockenc._block_solve
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "solve", lambda a, b: rows.append(len(a)) or solve(a, b))
        m.setattr(blockenc, "_block_solve", lambda hb, k: sizes.append(k) or block_solve(hb, k))
        w = inverse_weight(ua, q)
    assert max(rows) <= BLOCK
    return w, sizes


@pytest.mark.parametrize("n, coupling", [(1, None), (2, None), (3, None), (4, "t5"),
                                         (5, None), (8, None)])
def test_inverse_weight_is_the_dense_solve(n, coupling, monkeypatch):
    cmap = load_coupling_map(coupling) if coupling else None
    sizes = set()
    for seed in range(20):
        ua = generate_instance(n, seed, coupling=cmap)
        for kappa in (2.0, 20.0, 1000.0):
            q = quadratic_for_condition(kappa)
            ref = _dense_weight(ua, q)
            w, solves = _weight_and_solves(monkeypatch, ua, q)
            assert abs(w - ref) <= 1e-12 * ref, (seed, kappa)
            sizes.update(solves)
    if n >= 4:  # the seeds cover cones smaller than the register and the whole register
        assert min(sizes) < 2**n == max(sizes)


def test_inverse_weight_without_an_ancilla_gate():
    # A is unitary, so h(A) = (a2 + a0) I
    q = QuadraticH(0.6, 0.3)
    for n in (1, 3):
        ua = BlockEncoding(G.QuantumCircuit(n + 1), n, m=1)
        assert inverse_weight(ua, q) == pytest.approx(1 / 0.9**2, rel=1e-14)
        ua = BlockEncoding(G.from_gates(n + 1, [G.h(n), G.u3(1, 0.2, 0.3, 0.4)]), n, m=1)
        assert inverse_weight(ua, q) == pytest.approx(1 / 0.9**2, rel=1e-14)


def test_inverse_weight_drops_system_blocks_around_a_non_prefix_cone(monkeypatch):
    # the block on (3, 4) before the ancilla's blocks moves |0^n>, the one
    # on 1..4 after them cancels out of A^dag A; the cone's sites {0, 1, 3}
    # are not a prefix, so they are relabelled by rank
    gates = [G.u3(3, 0.7, 0.2, 1.3), G.h(4), G.cnot(3, 4), G.u2(4, 0.4, 1.1),
             G.u3(2, 0.3, 0.9, 0.1), G.cnot(0, 1), G.u3(1, 1.1, 0.5, 0.9), G.cnot(1, 3),
             G.u3(3, 2.2, 0.3, 0.6), G.cnot(0, 1), G.t(0), G.u3(0, 0.8, 1.4, 0.2),
             G.cnot(3, 1), G.cnot(2, 3), G.u3(2, 0.3, 1.7, 0.2), G.cnot(4, 3),
             G.u3(1, 2.1, 0.4, 0.6)]
    ua = BlockEncoding(G.from_gates(5, gates), 4, m=1)
    assert [qs for _, qs in _ideal(ua.circuit, 0, False)] == [
        (3, 4), (0, 1), (1, 3), (0, 1), (1, 2, 3, 4)]
    for kappa in (2.0, 50.0):
        q = quadratic_for_condition(kappa)
        ref = _dense_weight(ua, q)
        w, solves = _weight_and_solves(monkeypatch, ua, q)
        assert abs(w - ref) <= 1e-12 * ref and solves == [4]


def test_inverse_weight_solves_on_the_cone_only(monkeypatch):
    # generate_instance(8, 0)'s cone is sites 0-3, so the one solve is 8 x 8.
    # The ancilla blocks of seed 1 reach all 9 sites from the first to the
    # last, but only 6 lie on the cone grown both ways, so its solve is 32 x 32
    q = quadratic_for_condition(10.0)
    assert _weight_and_solves(monkeypatch, generate_instance(8, 0), q)[1] == [8]
    ua = generate_instance(8, 1)
    blocks = _ideal(ua.circuit, 0, False)
    at = [i for i, (_, qs) in enumerate(blocks) if 0 in qs]
    assert {p for _, qs in blocks[at[0]:at[-1] + 1] for p in qs} == set(range(9))
    assert _weight_and_solves(monkeypatch, ua, q)[1] == [32]


def test_block_solve_is_the_dense_solve():
    # sizes below, at, between and above multiples of BLOCK
    rng = np.random.default_rng(7)
    for k, cols in ((5, 1), (BLOCK, 3), (3 * BLOCK + 8, 2), (8 * BLOCK, 1)):
        m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        h = m.conj().T @ m / k + 0.01 * np.eye(k)
        b = rng.normal(size=(k, cols)) + 1j * rng.normal(size=(k, cols))
        x = blockenc._block_solve(np.hstack([h, b]), k)
        assert np.allclose(h @ x, b, rtol=0, atol=1e-10)


def test_inverse_weight_holds_no_array_beyond_h():
    # generate_instance(8, 3000001)'s cone is all 9 sites, so h is 256 x 256
    # (1 MB); building all 512 x 256 columns of the cone at once held 4 MB
    ua, q = generate_instance(8, 3000001), quadratic_for_condition(20.0)
    inverse_weight(ua, q)  # U_A's blocks are fused once, outside the count
    tracemalloc.start()
    try:
        inverse_weight(ua, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256**2 * 16 + 2**20


def test_inverse_weight_needs_a_positive_h():
    ua = generate_instance(2, 0)
    with pytest.raises(ValueError, match="h > 0"):
        inverse_weight(ua, QuadraticH(1.0, -0.5))


def test_inverse_weight_keeps_the_qubit_cap():
    ua = BlockEncoding(G.QuantumCircuit(14), 13, m=1)
    with pytest.raises(ValueError, match="exceeds unitary cap"):
        inverse_weight(ua, quadratic_for_condition(2.0))
    with pytest.raises(ValueError, match="1-ancilla"):
        inverse_weight(build_canonical_hracbem(random_ua(1, seed=0)), quadratic_for_condition(2.0))
