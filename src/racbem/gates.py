"""Gate and circuit data model.

Conventions used throughout the package:

* qubit 0 is the most significant bit of the state index, so for a
  circuit with ``m`` ancilla qubits at indices ``0..m-1`` the block-encoded
  matrix is literally the upper-left block of the circuit unitary.
* U1(lam) = diag(1, e^{i lam}); this equals Rz(lam) up to a global phase.
* U2(phi, lam) = (1/sqrt2) [[1, -e^{i lam}], [e^{i phi}, e^{i(phi+lam)}]].
* U3(theta, phi, lam) is the generic Euler-angle one-qubit gate; U2 is
  U3 with theta = pi/2.
* RZ(theta) = e^{-i theta Z / 2} = diag(e^{-i theta/2}, e^{i theta/2}).
  RZ differs from U1 only by a global phase, but the distinction matters
  when a circuit block is compared entrywise against a target matrix, so
  it is kept as a first-class kind.  On hardware it would be implemented
  as a (virtual) U1 and it is counted as one logical gate.
* CNOT 4x4 unitary is written with the control bit more significant than
  the target bit within the pair.

Circuits are immutable after construction and safe to share.  A circuit
is its gates or its parts: (leaf, qubit offset, dagger) references to
gate-level circuits, so a QSVT circuit applies U_A d times without
copying a gate; readers of its gates see the parts placed in turn.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field, fields

import numpy as np

TWO_PI = 2.0 * math.pi

# number of angle parameters per gate kind
GATE_KINDS = {
    "u1": 1,
    "u2": 2,
    "u3": 3,
    "x": 0,
    "h": 0,
    "t": 0,
    "sdg": 0,
    "rz": 1,
    "cnot": 0,
}

ONE_QUBIT_KINDS = frozenset(k for k in GATE_KINDS if k != "cnot")


def _reduce_angle(a: float, period: float = TWO_PI) -> float:
    if not math.isfinite(a):
        raise ValueError(f"non-finite gate angle {a!r}")
    return a % period


@dataclass(frozen=True)
class Gate:
    """A single gate application: kind, operand qubits, angles.

    Angles are stored reduced to [0, 2*pi), except rz angles which are
    reduced to [0, 4*pi) since exp(-i*theta*Z/2) has period 4*pi."""

    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        n_params = GATE_KINDS[self.kind]
        if len(self.params) != n_params:
            raise ValueError(
                f"{self.kind} expects {n_params} angles, got {len(self.params)}"
            )
        n_ops = 2 if self.kind == "cnot" else 1
        if len(self.qubits) != n_ops:
            raise ValueError(
                f"{self.kind} expects {n_ops} operands, got {len(self.qubits)}"
            )
        if self.kind == "cnot" and self.qubits[0] == self.qubits[1]:
            raise ValueError("cnot control and target must differ")
        if any(q < 0 for q in self.qubits):
            raise ValueError("negative qubit index")
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        period = 2.0 * TWO_PI if self.kind == "rz" else TWO_PI
        object.__setattr__(
            self, "params", tuple(float(_reduce_angle(a, period)) for a in self.params)
        )


def u1(q: int, lam: float) -> Gate:
    return Gate("u1", (q,), (lam,))


def u2(q: int, phi: float, lam: float) -> Gate:
    return Gate("u2", (q,), (phi, lam))


def u3(q: int, theta: float, phi: float, lam: float) -> Gate:
    return Gate("u3", (q,), (theta, phi, lam))


def x(q: int) -> Gate:
    return Gate("x", (q,))


def h(q: int) -> Gate:
    return Gate("h", (q,))


def t(q: int) -> Gate:
    return Gate("t", (q,))


def sdg(q: int) -> Gate:
    return Gate("sdg", (q,))


def rz(q: int, theta: float) -> Gate:
    return Gate("rz", (q,), (theta,))


def cnot(control: int, target: int) -> Gate:
    return Gate("cnot", (control, target))


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def gate_unitary(g: Gate) -> np.ndarray:
    """Return the 2x2 (or 4x4 for cnot) unitary of a gate."""
    k = g.kind
    if k == "u1":
        (lam,) = g.params
        return np.array([[1.0, 0.0], [0.0, np.exp(1j * lam)]])
    if k == "u2":
        phi, lam = g.params
        return _INV_SQRT2 * np.array(
            [
                [1.0, -np.exp(1j * lam)],
                [np.exp(1j * phi), np.exp(1j * (phi + lam))],
            ]
        )
    if k == "u3":
        theta, phi, lam = g.params
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        return np.array(
            [
                [c, -np.exp(1j * lam) * s],
                [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
            ]
        )
    if k == "x":
        return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    if k == "h":
        return _INV_SQRT2 * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    if k == "t":
        return np.array([[1.0, 0.0], [0.0, np.exp(1j * math.pi / 4.0)]])
    if k == "sdg":
        return np.array([[1.0, 0.0], [0.0, -1j]])
    if k == "rz":
        (theta,) = g.params
        return np.array(
            [[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]]
        )
    if k == "cnot":
        m = np.eye(4, dtype=complex)
        m[[2, 3]] = m[[3, 2]]
        return m
    raise AssertionError(k)


# a gate's inverse has its kind, except these (see gate_adjoint)
ADJOINT_KINDS = {"t": "u1", "sdg": "u1", "u2": "u3"}


def gate_adjoint(g: Gate) -> Gate:
    """The inverse of a single gate, expressed in the same gate alphabet.

    Inverting u2 produces a u3 (u2 is not closed under inversion); t and
    sdg invert to u1 phase gates.  Adjoint circuits run on the simulator
    and are not restricted to the generator gate set."""
    k = g.kind
    if k in ("x", "h", "cnot"):
        return g
    if k == "u1":
        return u1(g.qubits[0], -g.params[0])
    if k == "rz":
        return rz(g.qubits[0], -g.params[0])
    if k == "t":
        return u1(g.qubits[0], -math.pi / 4.0)
    if k == "sdg":
        return u1(g.qubits[0], math.pi / 2.0)
    if k == "u2":
        phi, lam = g.params
        return u3(g.qubits[0], math.pi / 2.0, math.pi - lam, math.pi - phi)
    if k == "u3":
        theta, phi, lam = g.params
        return u3(g.qubits[0], theta, math.pi - lam, math.pi - phi)
    raise AssertionError(k)


@dataclass(frozen=True)
class QuantumCircuit:
    """Layered quantum circuit, given by its gates or by its parts.

    ``layers`` is a tuple of layers, each a tuple of gates acting on
    disjoint qubits (layers are parallel time steps).  An assembled
    circuit has instead ``parts``: (leaf, offset, dagger) references, each
    the gate-level circuit leaf with its operands moved up by offset and,
    for dagger, inverted.  A leaf is validated once, when it is built."""

    n_qubits: int
    layers: tuple[tuple[Gate, ...], ...] = ()
    name: str = ""
    parts: tuple[tuple["QuantumCircuit", int, bool], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(tuple(layer) for layer in self.layers))
        object.__setattr__(self, "parts", tuple((p, int(o), bool(dg)) for p, o, dg in self.parts))
        if self.parts and self.layers or any(p.parts for p, _, _ in self.parts):
            raise ValueError("an assembled circuit has gate-level parts and no layers")
        for p, offset, _ in self.parts:
            if not 0 <= offset <= self.n_qubits - p.n_qubits:
                raise ValueError(f"part at offset {offset} does not fit {self.n_qubits} qubits")
        for layer in self.layers:
            qs = [q for g in layer for q in g.qubits]
            if max(qs, default=-1) >= self.n_qubits:
                raise ValueError(f"gate operand {max(qs)} out of range for "
                                 f"{self.n_qubits}-qubit circuit")
            if len(set(qs)) < len(qs):
                raise ValueError(f"a qubit is used twice in one layer: {qs}")

    def __hash__(self) -> int:
        # the generated hash walks every gate; frozen, so compute it once
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.n_qubits, self.layers, self.name, self.parts))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        # string hashes are salted per process, so a pickle keeps only the
        # fields and drops the hash and the fused blocks
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def refs(self) -> tuple[tuple["QuantumCircuit", int, bool], ...]:
        """The parts; a gate-level circuit is its own one part."""
        return self.parts or ((self, 0, False),)

    def flat_layers(self) -> tuple[tuple[Gate, ...], ...]:
        """The layers, each part's placed in turn."""
        return tuple(layer for ref in self.parts for layer in placed_layers(*ref)) or self.layers

    @property
    def depth(self) -> int:
        return sum(len(p.layers) for p, _, _ in self.refs())

    def gates(self):
        for layer in self.flat_layers():
            yield from layer


def from_gates(n_qubits: int, gates) -> QuantumCircuit:
    """Build a circuit with one gate per layer (sequential schedule)."""
    return QuantumCircuit(n_qubits, tuple((g,) for g in gates))


def adjoint(c: QuantumCircuit) -> QuantumCircuit:
    """Reverse the layer order and invert every gate."""
    layers = tuple(
        tuple(gate_adjoint(g) for g in layer) for layer in reversed(c.flat_layers())
    )
    name = c.name + "_dag" if c.name else ""
    return QuantumCircuit(c.n_qubits, layers, name)


def placed_layers(leaf: QuantumCircuit, offset: int, dagger: bool):
    """The layers of one part: leaf's (dagger: its adjoint's), with every
    operand moved up by offset."""
    layers = adjoint(leaf).layers if dagger else leaf.layers
    if not offset:
        return layers
    return tuple(
        tuple(Gate(g.kind, tuple(q + offset for q in g.qubits), g.params) for g in layer)
        for layer in layers
    )


@dataclass(frozen=True)
class CouplingMap:
    """Directed graph of qubit pairs on which CNOT is natively available."""

    n_qubits: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        edges = frozenset((int(c), int(t)) for c, t in self.edges)
        object.__setattr__(self, "edges", edges)
        for c, t in edges:
            if c == t:
                raise ValueError("coupling edge endpoints must differ")
            if not (0 <= c < self.n_qubits and 0 <= t < self.n_qubits):
                raise ValueError("coupling edge endpoint out of range")

    @classmethod
    def from_json(cls, text: str) -> "CouplingMap":
        d = json.loads(text)
        return cls(d["n_qubits"], frozenset(tuple(e) for e in d["edges"]))

    def to_json(self) -> str:
        return json.dumps(
            {"n_qubits": self.n_qubits, "edges": sorted(map(list, self.edges))}
        )


def validate(c: QuantumCircuit, m: CouplingMap, layout=None) -> list[str]:
    """List coupling-map violations (empty when every CNOT lies on an edge).

    ``layout`` maps logical to physical qubits; identity by default."""
    if c.n_qubits > m.n_qubits:
        raise ValueError(
            f"circuit has {c.n_qubits} qubits but map has {m.n_qubits}"
        )
    if layout is None:
        layout = {q: q for q in range(c.n_qubits)}
    violations = []
    for i, layer in enumerate(c.flat_layers()):
        for g in layer:
            if g.kind != "cnot":
                continue
            edge = (layout[g.qubits[0]], layout[g.qubits[1]])
            if edge not in m.edges:
                violations.append(
                    f"layer {i}: cnot {edge[0]}->{edge[1]} not on coupling map"
                )
    return violations


def gate_count(c: QuantumCircuit) -> dict[str, int]:
    """Per-kind logical gate counts, in order of first use, plus a ``total``
    entry.  Each gate (including a CNOT) counts once; a part counts its
    leaf's gates (dagger: their inverses' kinds) times its recurrences."""
    counts: dict[str, int] = {}
    for (p, dagger), k in Counter((p, dagger) for p, _, dagger in c.refs()).items():
        for layer in reversed(p.layers) if dagger else p.layers:
            for g in layer:
                kind = ADJOINT_KINDS.get(g.kind, g.kind) if dagger else g.kind
                counts[kind] = counts.get(kind, 0) + k
    counts["total"] = sum(counts.values())
    return counts


# -- serialization ------------------------------------------------------

_HEADER = "# racbem circuit v1; qubit 0 is the most significant state-index bit"


def circuit_to_text(c: QuantumCircuit) -> str:
    lines = [_HEADER, f"QUBITS {c.n_qubits}"]
    if c.name:
        lines.append(f"NAME {c.name}")
    for i, layer in enumerate(c.flat_layers()):
        lines.append(f"LAYER {i}")
        for g in layer:
            ops = " ".join(str(q) for q in g.qubits)
            angles = " ".join(repr(float(a)) for a in g.params)
            lines.append(f"GATE {g.kind} {ops} {angles}".rstrip())
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> QuantumCircuit:
    n_qubits = None
    name = ""
    layers: list[list[Gate]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tok = line.split()
        if tok[0] == "QUBITS":
            n_qubits = int(tok[1])
        elif tok[0] == "NAME":
            name = line[len("NAME ") :]
        elif tok[0] == "LAYER":
            layers.append([])
        elif tok[0] == "GATE":
            kind = tok[1]
            n_ops = 2 if kind == "cnot" else 1
            qubits = tuple(int(v) for v in tok[2 : 2 + n_ops])
            params = tuple(float(v) for v in tok[2 + n_ops :])
            if not layers:
                layers.append([])
            layers[-1].append(Gate(kind, qubits, params))
        else:
            raise ValueError(f"bad circuit line: {raw!r}")
    if n_qubits is None:
        raise ValueError("missing QUBITS header")
    return QuantumCircuit(n_qubits, tuple(tuple(l) for l in layers), name)
