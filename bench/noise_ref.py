"""Exact law of the noisy sampler, and the check that its counts follow it.

`racbem.noise.sample_noisy_counts` draws trajectories: after each ideal
gate a Pauli error is drawn from the gate's distribution, and each
measured bit is then flipped by its readout confusion row.  Averaged over
trajectories that is the Pauli channel applied to the density matrix, so
the probability of any outcome can be computed exactly by evolving rho.
The check compares the sampled counts of the event "ancillas (qubits 0
and 1) read 0", the post-selection every QSVT task uses, against that
exact probability:

- a call with more than one shot fails when its count lies outside the
  central 1 - 1e-6 interval of Binomial(shots, P);
- all calls of one CLI invocation together fail when the summed count
  is more than 5 standard deviations from its expectation, which is what
  checks the one-shot collapse calls of the MeTTS chain;
- once per run, outside the timed window, the recorded call with the
  most shots is made again with the basis input, ancillas at 0, whose exact probability is
  furthest from that of the recorded input, and INPUT_CHECK_SHOTS shots;
  it fails outside the same binomial interval.  The workloads themselves
  seldom start the sampler from anything but |0...0>, so without this
  a sampler that ignores its input state would pass.

A redraw of the samples passes all three with near certainty.  A sampler
that skips the Pauli errors fails both workloads (z = 9 to 26), and one
that skips the circuit fails trivially.  One that ignores its input state
fails the input check on metts-noisy.  On spectral-noisy the deep noisy
circuits leave the ancilla-zero probability within about 0.02 of the same
value for every basis input, so there the check cannot resolve such a
sampler (it prints "unresolved"), and its outputs would not differ either.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from racbem.gates import circuit_to_text, gate_unitary
from racbem.statevector import StateVector

ALPHA = 1e-6
Z_MAX = 5.0
ANCILLAS = (0, 1)
INPUT_CHECK_SHOTS = 2048


def binomial_interval(n: int, p: float, alpha: float) -> tuple[int, int]:
    """Central interval [lo, hi] of Binomial(n, p): each tail outside it has
    probability at most alpha / 2.  Plain numpy: importing scipy.stats into
    the benchmark process slowed the noisy sampler by ~40%."""
    if p <= 0.0 or p >= 1.0:
        k = 0 if p <= 0.0 else n
        return k, k
    ks = np.arange(n + 1)
    log_choose = np.array([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                           for k in range(n + 1)])
    pmf = np.exp(log_choose + ks * math.log(p) + (n - ks) * math.log1p(-p))
    below = np.cumsum(pmf)  # below[k] = P(X <= k)
    above = np.cumsum(pmf[::-1])  # above[j] = P(X >= n - j)
    return int(np.argmax(below > alpha / 2)), int(n - np.argmax(above > alpha / 2))


class SamplerProbe:
    """Records every call of the noisy sampler, for checking after the clock stops."""

    def __init__(self):
        self.records: list[tuple] = []
        self.call_index = -1

    def wrap(self, fn):
        @functools.wraps(fn)
        def probe(c, model, shots, measured, rng, input_state=None):
            counts = fn(c, model, shots, measured, rng, input_state)
            self.records.append((self.call_index, c, model, shots, tuple(measured),
                                 input_state, counts))
            return counts

        return probe


def _apply(u: np.ndarray, rho: np.ndarray, axes: list[int]) -> np.ndarray:
    if len(axes) == 1:
        out = np.tensordot(u, rho, axes=([1], axes))
        return np.moveaxis(out, 0, axes[0])
    out = np.tensordot(u.reshape(2, 2, 2, 2), rho, axes=([2, 3], axes))
    return np.moveaxis(out, [0, 1], axes)


def _pauli_conj(rho: np.ndarray, label: str, qubits, n: int) -> np.ndarray:
    """P rho P^dagger for a Pauli string on the given qubits."""
    sign = np.array([1.0, -1.0])
    for p, q in zip(label, qubits):
        if p in "zy":
            shape = [1] * (2 * n)
            shape[q] = 2
            rho = rho * sign.reshape(shape)
            shape[q], shape[q + n] = 1, 2
            rho = rho * sign.reshape(shape)
        if p in "xy":
            # Y rho Y^dagger = X Z rho Z X
            rho = np.flip(np.flip(rho, q), q + n)
    return rho


def outcome_distribution(circuit, model, measured, input_state) -> np.ndarray:
    """Exact distribution of the sampler's bitstrings (measured[0] first)."""
    n = circuit.n_qubits
    psi = input_state.amplitudes.reshape((2,) * n)
    rho = np.multiply.outer(psi, psi.conj())
    for g in circuit.gates():
        u = gate_unitary(g)
        rho = _apply(u, rho, list(g.qubits))
        rho = _apply(u.conj(), rho, [q + n for q in g.qubits])
        dist = model.gate_errors.get((g.kind, g.qubits))
        if dist:
            rho = sum(p * _pauli_conj(rho, lab, g.qubits, n) for lab, p in dist.items())
    probs = np.real(np.diagonal(rho.reshape(2**n, 2**n))).reshape((2,) * n)
    probs = np.clip(probs, 0.0, None)
    drop = tuple(q for q in range(n) if q not in measured)
    marg = probs.sum(axis=drop) if drop else probs
    # axes of marg follow ascending qubit order; put them in measured order
    marg = np.transpose(marg, np.argsort(np.argsort(measured)))
    for pos, q in enumerate(measured):
        rows = model.readout.get(q)
        if rows is not None:
            marg = np.moveaxis(np.tensordot(marg, np.array(rows), axes=([pos], [0])), -1, pos)
    return marg.reshape(-1) / marg.sum()


def _event_mask(measured) -> np.ndarray:
    k = len(measured)
    idx = np.arange(2**k)
    mask = np.ones(2**k, dtype=bool)
    for pos, q in enumerate(measured):
        if q in ANCILLAS:
            mask &= ((idx >> (k - 1 - pos)) & 1) == 0
    return mask


def _observed(counts, measured) -> int:
    pos = [j for j, q in enumerate(measured) if q in ANCILLAS]
    return sum(v for bits, v in counts.counts.items() if all(bits[j] == "0" for j in pos))


class NoisyReference:
    """Exact outcome distributions, cached by circuit text, input, model and measured qubits."""

    def __init__(self):
        self.cache: dict = {}

    def distribution(self, circuit_key, circuit, model, measured, input_state, model_key):
        key = (circuit_key, input_state.amplitudes.tobytes(), model_key, measured)
        if key not in self.cache:
            self.cache[key] = outcome_distribution(circuit, model, measured, input_state)
        return self.cache[key]

    def check(self, records) -> tuple[dict[int, list[str]], float]:
        """(problems per CLI call index, share of sampled gates with a model entry)."""
        problems: dict[int, list[str]] = {}
        totals: dict[int, list[float]] = {}  # observed, mean, variance per CLI call
        text_of: dict[int, str] = {}
        json_of: dict[int, str] = {}
        covered = gates = 0
        for index, c, model, shots, measured, inp, counts in records:
            if inp is None:
                inp = StateVector.zero(c.n_qubits)
            if id(c) not in text_of:
                text_of[id(c)] = circuit_to_text(c)
                glist = list(c.gates())
                gates += len(glist)
                covered += sum((g.kind, g.qubits) in model.gate_errors for g in glist)
            if id(model) not in json_of:
                json_of[id(model)] = model.to_json()
            dist = self.distribution(text_of[id(c)], c, model, measured, inp, json_of[id(model)])
            p = float(dist[_event_mask(measured)].sum())
            obs = _observed(counts, measured)
            if shots > 1:
                lo, hi = binomial_interval(shots, p, ALPHA)
                if not lo <= obs <= hi:
                    problems.setdefault(index, []).append(
                        f"{obs}/{shots} ancilla-zero counts outside [{lo}, {hi}] "
                        f"of Binomial({shots}, {p:.4f})"
                    )
            t = totals.setdefault(index, [0.0, 0.0, 0.0])
            t[0] += obs
            t[1] += shots * p
            t[2] += shots * p * (1.0 - p)
        for index, (obs, mean, var) in totals.items():
            z = (obs - mean) / np.sqrt(var) if var > 0 else (0.0 if obs == mean else np.inf)
            if abs(z) > Z_MAX:
                problems.setdefault(index, []).append(
                    f"summed ancilla-zero count {obs:.0f} vs expected {mean:.1f} (z = {z:.1f})"
                )
        coverage = covered / gates if gates else 0.0
        return problems, coverage

    def input_check(self, record, sampler, rng) -> tuple[str, str]:
        """Run one recorded call again from another basis input; returns
        (problem or "", description of what was checked)."""
        _, c, model, _, measured, inp, _ = record
        n = c.n_qubits
        if inp is None:
            inp = StateVector.zero(n)
        text, model_key = circuit_to_text(c), model.to_json()
        mask = _event_mask(measured)

        def p_of(state):
            return float(self.distribution(text, c, model, measured, state, model_key)[mask].sum())

        p_rec = p_of(inp)
        # qubit 0 is the most significant bit, so indices below 2**(n - 2)
        # leave both ancillas at 0
        inputs = [StateVector.basis(n, j) for j in range(2 ** (n - len(ANCILLAS)))]
        probs = [p_of(state) for state in inputs]
        j = max(range(len(inputs)), key=lambda k: abs(probs[k] - p_rec))
        counts = sampler(c, model, INPUT_CHECK_SHOTS, list(measured), rng, inputs[j])
        obs = _observed(counts, measured)
        lo, hi = binomial_interval(INPUT_CHECK_SHOTS, probs[j], ALPHA)
        # whether a sampler that ignored its input would be expected to fail
        power = "resolved" if not lo <= INPUT_CHECK_SHOTS * p_rec <= hi else "unresolved"
        what = (f"input check ({power}): basis input {j}, {obs}/{INPUT_CHECK_SHOTS} ancilla-zero "
                f"counts, interval [{lo}, {hi}] for P = {probs[j]:.4f}, recorded input P = {p_rec:.4f}")
        return ("" if lo <= obs <= hi else what), what
