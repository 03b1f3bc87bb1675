"""Finite-shot estimators layered over exact simulator quantities.

No ancilla circuit is ever built.  Each measurement protocol reduces to
a two-outcome distribution whose success probability is a function of
one exact scalar, so drawing from a binomial with that probability is
statistically identical to sampling the corresponding circuit.

Streams are splittable: every estimated scalar derives its own child
stream from the master seed through a counter-based path, so results
are reproducible and independent of evaluation order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .states import StateVector, pauli_expectation, pauli_matrix_element

_PARTS = ("real", "imag")


@lru_cache(maxsize=1024)
def _hash_key(text: str) -> int:
    digest = hashlib.blake2s(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _normalize_key(key) -> int:
    """Map one path component to a non-negative 64-bit integer."""
    if isinstance(key, (int, np.integer)) and not isinstance(key, bool):
        value = int(key)
        if 0 <= value < 1 << 64:
            return value
    return _hash_key(repr(key))


@dataclass(frozen=True)
class ShotBudget:
    """Shots per estimated scalar plus the stream that pays for them.

    shots=None is the exact sentinel: estimators return the underlying
    exact value untouched, so an exact budget never opens a stream and
    `split` returns it unchanged.  Otherwise `path` is the split history;
    `split` extends it, and `rng` opens a Philox stream keyed by
    (seed, path).
    """

    shots: int | None
    seed: int = 0
    path: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.shots is not None and self.shots < 1:
            raise ValueError(f"shots must be >= 1 or None, got {self.shots}")

    @property
    def exact(self) -> bool:
        return self.shots is None

    def split(self, *key) -> "ShotBudget":
        if self.shots is None:
            return self
        extra = tuple(_normalize_key(k) for k in key)
        return ShotBudget(self.shots, self.seed, self.path + extra)

    def rng(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))


EXACT = ShotBudget(shots=None)


def make_rng(seed: int, *key) -> np.random.Generator:
    """Philox stream for non-measurement randomness (instance draws etc.)."""
    return ShotBudget(None, seed, tuple(_normalize_key(k) for k in key)).rng()


def derive_seed(master: int, *key) -> int:
    """Deterministic 64-bit child seed for spawning independent studies."""
    seq = np.random.SeedSequence(master, spawn_key=tuple(_normalize_key(k) for k in key))
    return int(seq.generate_state(1, np.uint64)[0])


def _sample_pm1(exact_value: float, budget: ShotBudget) -> float:
    """Mean of `shots` outcomes in {+1, -1} with P(+1) = (1 + v)/2."""
    p = min(max((1.0 + exact_value) / 2.0, 0.0), 1.0)
    hits = budget.rng().binomial(budget.shots, p)
    return 2.0 * hits / budget.shots - 1.0


def sample_pauli_expectation(state: StateVector, ops: str, budget: ShotBudget) -> float:
    """Finite-shot estimate of <psi|O|psi> for a non-identity string O."""
    if set(ops) == {"I"}:
        raise ValueError("identity strings are not measured; fold them in classically")
    value = pauli_expectation(state, ops)
    if budget.exact:
        return value
    return _sample_pm1(value, budget)


def sample_hadamard_test(
    left: StateVector, ops: str, right: StateVector, part: str, budget: ShotBudget
) -> float:
    """Finite-shot estimate of Re or Im <left|O|right> via the ancilla law.

    The identity string is allowed here (plain overlap <left|right>).
    """
    if part not in _PARTS:
        raise ValueError(f"part must be one of {_PARTS}, got {part!r}")
    element = pauli_matrix_element(left, ops, right)
    value = element.real if part == "real" else element.imag
    if abs(value) > 1.0 + 1e-9:
        raise ValueError(f"|{part} part| = {abs(value)} > 1: un-normalized inputs upstream")
    if budget.exact:
        return value
    return _sample_pm1(value, budget)


def sample_zero_fraction(overlap_sq: float, budget: ShotBudget) -> float:
    """Finite-shot estimate of an overlap probability |<q|psi>|**2."""
    if not -1e-9 <= overlap_sq <= 1.0 + 1e-9:
        raise ValueError(f"overlap_sq = {overlap_sq} outside [0, 1]")
    if budget.exact:
        return float(overlap_sq)
    p = min(max(float(overlap_sq), 0.0), 1.0)
    return budget.rng().binomial(budget.shots, p) / budget.shots
