import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from racbem import gates as G
from racbem.statevector import circuit_unitary

angles = st.floats(-20.0, 20.0, allow_nan=False)


def random_gate(rng, n_qubits):
    kind = rng.choice(list(G.GATE_KINDS))
    if kind == "cnot":
        c, t = rng.choice(n_qubits, size=2, replace=False)
        return G.cnot(int(c), int(t))
    q = int(rng.integers(n_qubits))
    params = tuple(rng.uniform(0, 2 * np.pi, G.GATE_KINDS[kind]))
    return G.Gate(kind, (q,), params)


def random_circuit(seed, n_qubits=3, n_gates=12):
    rng = np.random.default_rng(seed)
    return G.from_gates(n_qubits, [random_gate(rng, n_qubits) for _ in range(n_gates)])


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_gate_unitary_is_unitary(seed):
    g = random_gate(np.random.default_rng(seed), 2)
    u = G.gate_unitary(g)
    assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-12)


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_gate_adjoint_inverts(seed):
    g = random_gate(np.random.default_rng(seed), 2)
    u = G.gate_unitary(g)
    ua = G.gate_unitary(G.gate_adjoint(g))
    prod = ua @ u if u.shape == ua.shape else None
    # adjoints may differ by a global phase (t/sdg become u1 exactly,
    # u2/u3 inverses are exact), so check the product is a phase times I
    assert prod is not None
    phase = prod[0, 0]
    assert abs(abs(phase) - 1) < 1e-12
    assert np.allclose(prod, phase * np.eye(u.shape[0]), atol=1e-12)


@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_circuit_adjoint_inverts(seed):
    c = random_circuit(seed)
    u = circuit_unitary(c)
    ua = circuit_unitary(G.adjoint(c))
    prod = ua @ u
    phase = prod[0, 0]
    assert np.allclose(prod, phase * np.eye(8), atol=1e-10)


def test_rz_period_is_4pi():
    theta = 1.234
    a = G.gate_unitary(G.rz(0, theta))
    b = G.gate_unitary(G.rz(0, theta + 4 * math.pi))
    c = G.gate_unitary(G.rz(0, theta + 2 * math.pi))
    assert np.allclose(a, b, atol=1e-12)
    assert not np.allclose(a, c, atol=1e-6)  # differs by a sign


def test_rz_angle_reduced_mod_4pi():
    assert G.rz(0, 1.0 + 4 * math.pi).params[0] == pytest.approx(1.0)
    assert G.rz(0, 1.0 + 2 * math.pi).params[0] == pytest.approx(1.0 + 2 * math.pi)
    assert G.u1(0, 1.0 + 2 * math.pi).params[0] == pytest.approx(1.0)


def test_gate_validation():
    with pytest.raises(ValueError):
        G.Gate("nope", (0,))
    with pytest.raises(ValueError):
        G.Gate("u1", (0,), ())  # missing angle
    with pytest.raises(ValueError):
        G.Gate("cnot", (1, 1))
    with pytest.raises(ValueError):
        G.Gate("x", (-1,))
    with pytest.raises(ValueError):
        G.Gate("rz", (0,), (float("nan"),))


def test_layer_disjointness_enforced():
    with pytest.raises(ValueError):
        G.QuantumCircuit(2, ((G.x(0), G.h(0)),))
    with pytest.raises(ValueError):
        G.QuantumCircuit(1, ((G.x(1),),))


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_text_round_trip(seed):
    c = random_circuit(seed)
    t = G.circuit_to_text(c)
    c2 = G.circuit_from_text(t)
    assert c2 == c
    assert hash(c2) == hash(c) == hash(c)
    assert G.circuit_to_text(c2) == t
    # the cached hash depends on the process's string-hash salt, so a
    # pickle leaves it out
    assert "_hash" not in vars(pickle.loads(pickle.dumps(c)))


def shifted(c: G.QuantumCircuit, offset: int, n_qubits: int) -> G.QuantumCircuit:
    """c gate by gate with every operand moved up by offset: a part's
    placement written out without parts."""
    layers = tuple(tuple(G.Gate(g.kind, tuple(q + offset for q in g.qubits), g.params)
                         for g in layer) for layer in c.layers)
    return G.QuantumCircuit(n_qubits, layers, c.name)


def test_shift_and_concat():
    # an assembled circuit reads as its parts placed in turn: operands moved
    # up by the offset and, for dagger, the leaf's adjoint
    c = G.from_gates(2, [G.h(0), G.t(1), G.cnot(0, 1)])
    both = G.QuantumCircuit(3, parts=((c, 1, False), (c, 1, True)))
    want = shifted(c, 1, 3).layers + shifted(G.adjoint(c), 1, 3).layers
    assert both.flat_layers() == want
    assert [g.qubits for g in both.gates()] == [(1,), (2,), (1, 2), (1, 2), (2,), (1,)]
    assert both.depth == 2 * c.depth
    counts = G.gate_count(both)
    assert list(counts.items()) == [("h", 2), ("t", 1), ("cnot", 2), ("u1", 1), ("total", 6)]
    # counted without placing, every kind's inverse keeps the kind gate_adjoint gives
    every = G.from_gates(2, [G.Gate(k, (1, 0) if k == "cnot" else (0,), (0.4,) * n)
                             for k, n in G.GATE_KINDS.items()])
    thrice = G.QuantumCircuit(3, parts=((every, 1, True), (every, 0, False), (every, 1, True)))
    flat = {}
    for g in thrice.gates():
        flat[g.kind] = flat.get(g.kind, 0) + 1
    assert list(G.gate_count(thrice).items()) == list(flat.items()) + [("total", 27)]
    assert both.refs() == both.parts and c.refs() == ((c, 0, False),)
    with pytest.raises(ValueError):
        G.QuantumCircuit(2, parts=((c, 1, False),))  # does not fit
    with pytest.raises(ValueError):
        G.QuantumCircuit(3, parts=((both, 0, False),))  # parts are gate-level
    with pytest.raises(ValueError):
        G.QuantumCircuit(3, c.layers, parts=((c, 0, False),))


def test_gate_count():
    c = G.from_gates(2, [G.h(0), G.h(1), G.cnot(0, 1)])
    counts = G.gate_count(c)
    assert counts == {"h": 2, "cnot": 1, "total": 3}


def test_coupling_validate():
    m = G.CouplingMap(3, frozenset({(0, 1), (1, 0), (1, 2)}))
    good = G.from_gates(3, [G.cnot(0, 1), G.cnot(1, 2)])
    bad = G.from_gates(3, [G.cnot(2, 1)])
    assert G.validate(good, m) == []
    assert len(G.validate(bad, m)) == 1
    # layout remaps logical to physical
    assert G.validate(bad, m, layout={0: 0, 1: 2, 2: 1}) == []


def test_coupling_json_round_trip():
    m = G.CouplingMap(4, frozenset({(0, 1), (2, 3)}))
    assert G.CouplingMap.from_json(m.to_json()) == m


def test_coupling_map_validation():
    with pytest.raises(ValueError):
        G.CouplingMap(2, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        G.CouplingMap(2, frozenset({(0, 5)}))
