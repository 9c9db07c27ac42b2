import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from racbem import gates as G
from racbem.blockenc import extract_block
from racbem.generator import (
    GeneratorConfig,
    default_depth,
    generate,
    generate_block_encoding,
    linear_coupling_map,
    load_coupling_map,
    sv_spread_stats,
)


def test_default_depth_rule():
    assert default_depth(1) == 3
    assert default_depth(2) == 7
    assert default_depth(3) == 15
    assert default_depth(5) == 19
    with pytest.raises(ValueError):
        default_depth(0)


def test_bundled_coupling_maps():
    t5 = load_coupling_map("t5")
    assert t5.n_qubits == 5
    lad = load_coupling_map("ladder15")
    assert lad.n_qubits == 15
    for m in (t5, lad):
        for c, t in m.edges:
            assert 0 <= c < m.n_qubits and 0 <= t < m.n_qubits


def test_linear_coupling_map():
    m = linear_coupling_map(3)
    assert m.edges == frozenset({(0, 1), (1, 0), (1, 2), (2, 1)})


def test_config_validation():
    m = linear_coupling_map(3)
    with pytest.raises(ValueError):
        GeneratorConfig(m, p_cnot=1.0)
    with pytest.raises(ValueError):
        GeneratorConfig(m, depth=0)
    with pytest.raises(ValueError):
        GeneratorConfig(G.CouplingMap(2))


def test_generate_deterministic():
    cfg = GeneratorConfig(linear_coupling_map(4), depth=5, seed=42)
    assert generate(cfg) == generate(cfg)
    assert generate(cfg) != generate(
        GeneratorConfig(linear_coupling_map(4), depth=5, seed=43)
    )


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_layers_cover_every_qubit(seed):
    cfg = GeneratorConfig(linear_coupling_map(4), depth=4, seed=seed)
    c = generate(cfg)
    for layer in c.layers:
        used = sorted(q for g in layer for q in g.qubits)
        assert used == [0, 1, 2, 3]


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_cnots_respect_coupling(seed):
    m = load_coupling_map("t5")
    c = generate(GeneratorConfig(m, depth=6, seed=seed))
    assert G.validate(c, m) == []


def test_block_encoding_qubit_count():
    cfg = GeneratorConfig(linear_coupling_map(4), depth=3, seed=0)
    be = generate_block_encoding(cfg, 3)
    assert be.n_sys == 3 and be.m == 1
    with pytest.raises(ValueError):
        generate_block_encoding(cfg, 2)


def test_block_singular_values_at_most_one():
    cfg = GeneratorConfig(linear_coupling_map(3), depth=7, seed=9)
    be = generate_block_encoding(cfg, 2)
    s = np.linalg.svd(extract_block(be), compute_uv=False)
    assert s.max() <= 1 + 1e-12


def test_sv_spread_stats_reproducible_and_positive():
    cfg = GeneratorConfig(linear_coupling_map(3), depth=7, seed=11)
    a = sv_spread_stats(20, 2, cfg)
    b = sv_spread_stats(20, 2, cfg)
    assert a == b
    assert a.min > 0
    assert a.max <= 1 + 1e-12
    assert a.samples == 20


@pytest.mark.parametrize("coupling, depth, digest", [
    ("linear", 25, "026186320b9496b36b0f490b7a7a2f81f3e863c624b1a22f06748f8a0da07d8f"),
    ("t5", 17, "6cd8cdb69ab925de56023f18b5aa4756366346f300fd1af6b078231d479846b0"),
])
def test_generated_text_is_fixed(coupling, depth, digest):
    # the texts of seeds 0-9, as an earlier edge filter (one set per edge)
    # wrote them: the random stream and every gate stay as they were
    cmap = linear_coupling_map(9) if coupling == "linear" else load_coupling_map(coupling)
    text = "".join(G.circuit_to_text(generate(GeneratorConfig(cmap, depth=depth, seed=s)))
                   for s in range(10))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
