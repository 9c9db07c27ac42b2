"""Random layered circuit generation on a coupling map.

Each layer covers every qubit exactly once: repeatedly either a CNOT on a
uniformly chosen still-available coupling edge (with probability p_cnot)
or a uniformly chosen 1-qubit gate on a uniformly chosen still-available
qubit, with all rotation angles uniform on [0, 2*pi).  Circuits generated
this way block-encode dense "random matrix" test instances once one qubit
is declared the encoding ancilla.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, replace

import numpy as np

from . import gates as G
from .blockenc import BlockEncoding, extract_block

ONE_QUBIT_CHOICES = ("u1", "u2", "u3")


def load_coupling_map(name: str) -> G.CouplingMap:
    """Load a bundled coupling map by name ('t5' or 'ladder15')."""
    text = (
        importlib.resources.files("racbem.data").joinpath(f"{name}.json").read_text()
    )
    return G.CouplingMap.from_json(text)


def linear_coupling_map(n_qubits: int) -> G.CouplingMap:
    """Chain 0-1-...-(n-1) with CNOTs available in both directions."""
    edges = set()
    for i in range(n_qubits - 1):
        edges.add((i, i + 1))
        edges.add((i + 1, i))
    return G.CouplingMap(n_qubits, frozenset(edges))


@dataclass(frozen=True)
class GeneratorConfig:
    coupling: G.CouplingMap
    p_cnot: float = 0.5
    depth: int = 1
    seed: int = 0

    def __post_init__(self):
        if not self.coupling.edges:
            raise ValueError("coupling map has no edges")
        if not 0.0 <= self.p_cnot < 1.0:
            raise ValueError("p_cnot must be in [0, 1)")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")


def default_depth(n_system: int) -> int:
    """Empirical depth rule: 3, 7, then 15 + 2*(n-3)."""
    if n_system < 1:
        raise ValueError("n_system must be >= 1")
    if n_system == 1:
        return 3
    if n_system == 2:
        return 7
    return 15 + 2 * (n_system - 3)


def _one_layer(cfg: GeneratorConfig, rng: np.random.Generator) -> tuple[G.Gate, ...]:
    n = cfg.coupling.n_qubits
    vertices = set(range(n))
    edges = sorted(cfg.coupling.edges)
    gates = []
    while vertices:
        r = rng.uniform()
        if r <= cfg.p_cnot and edges:
            c, t = edges[rng.integers(len(edges))]
            gates.append(G.cnot(c, t))
            used = {c, t}
        else:
            kind = ONE_QUBIT_CHOICES[rng.integers(len(ONE_QUBIT_CHOICES))]
            q = sorted(vertices)[rng.integers(len(vertices))]
            n_angles = G.GATE_KINDS[kind]
            angles = rng.uniform(0.0, 2.0 * np.pi, n_angles)
            gates.append(G.Gate(kind, (q,), tuple(angles)))
            used = {q}
        vertices -= used
        edges = [(c, t) for c, t in edges if c in vertices and t in vertices]
    return tuple(gates)


def generate(cfg: GeneratorConfig) -> G.QuantumCircuit:
    """Random layered circuit; deterministic given cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    layers = tuple(_one_layer(cfg, rng) for _ in range(cfg.depth))
    return G.QuantumCircuit(cfg.coupling.n_qubits, layers, name=f"racbem-{cfg.seed}")


def generate_block_encoding(cfg: GeneratorConfig, n_sys: int) -> BlockEncoding:
    """Generate a circuit and view it as a 1-ancilla block-encoding."""
    if cfg.coupling.n_qubits != n_sys + 1:
        raise ValueError("coupling map must have n_sys + 1 qubits")
    return BlockEncoding(generate(cfg), n_sys, m=1)


@dataclass(frozen=True)
class SpreadStats:
    """Statistics of sigma_max - sigma_min over sampled block-encoded matrices."""

    samples: int
    mean: float
    std: float
    min: float
    max: float


def sv_spread_stats(
    samples: int, n_system: int, cfg: GeneratorConfig
) -> SpreadStats:
    """Singular-value spread distribution over freshly seeded instances.

    Child seeds are spawned from cfg.seed so the whole batch is
    reproducible while each instance gets an independent stream."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    seeds = np.random.SeedSequence(cfg.seed).spawn(samples)
    spreads = np.empty(samples)
    for i, ss in enumerate(seeds):
        be = generate_block_encoding(replace(cfg, seed=ss), n_system)
        s = np.linalg.svd(extract_block(be), compute_uv=False)
        spreads[i] = s.max() - s.min()
    return SpreadStats(
        samples=samples,
        mean=float(spreads.mean()),
        std=float(spreads.std()),
        min=float(spreads.min()),
        max=float(spreads.max()),
    )
