"""Finite-shot estimators layered over exact simulator quantities.

No ancilla circuit is ever built.  Each measurement protocol reduces to
a two-outcome distribution whose success probability is a function of
one exact scalar, so drawing from a binomial with that probability is
statistically identical to sampling the corresponding circuit.

Streams are splittable: every estimated scalar derives its own child
stream from the master seed through a counter-based path, so results
are reproducible and independent of evaluation order.  A stream is the
Philox generator of numpy's SeedSequence for the seed with the path as
its spawn key; the budget keeps that sequence's entropy words, so a
draw never rebuilds them.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from .states import StateVector, pauli_expectation, pauli_matrix_element

_PARTS = ("real", "imag")

# numpy's SeedSequence constants: the entropy pool size and the hash
# `generate_state` runs over the pool.
_POOL_SIZE = 4
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MASK32 = 0xFFFFFFFF


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


def _int_words(value) -> Tuple[int, ...]:
    """Little-endian 32-bit words of a non-negative integer, as SeedSequence splits it."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"seed and path entries must be integers, got {value!r}") from None
    if value < 0:
        raise ValueError(f"seed and path entries must be non-negative, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return tuple(words)


def _path_words(path) -> Tuple[int, ...]:
    return tuple(word for key in path for word in _int_words(key))


def _key_words(key) -> Tuple[int, Tuple[int, ...]]:
    """A split key's path entry and its entropy words."""
    value = _normalize_key(key)
    return value, _int_words(value)


# Strings and integers map to the same entry whenever they are equal and
# of the same type; `typed` keeps True, 1 and np.int64(1) apart, since a
# bool is hashed through its repr.  Other keys (floats, where 0.0 == -0.0
# have different reprs, or unhashable ones) are normalized on every split.
_cached_key_words = lru_cache(maxsize=4096, typed=True)(_key_words)
_CACHED_KEYS = (str, int, np.integer)


def _philox_key(pool: np.ndarray) -> List[int]:
    """The key `Philox(seq)` takes: `seq.generate_state(2, np.uint64)` from seq's pool."""
    h = _INIT_B
    halves = []
    for word in pool.tolist():
        word ^= h
        h = (h * _MULT_B) & _MASK32
        word = (word * h) & _MASK32
        halves.append(word ^ word >> 16)
    return [halves[0] | halves[1] << 32, halves[2] | halves[3] << 32]


@lru_cache(maxsize=1)
def _shared_generator() -> np.random.Generator:
    # Built on first use: creating it at import costs every import memory.
    return np.random.Generator(np.random.Philox(0))


@dataclass(frozen=True)
class ShotBudget:
    """Shots per estimated scalar plus the stream that pays for them.

    shots=None is the exact sentinel: estimators return the underlying
    exact value untouched, so an exact budget never opens a stream and
    `split` returns it unchanged.  Otherwise `path` is the split history;
    `split` extends it, and `rng` opens a Philox stream keyed by
    (seed, path).  The seed and every path entry must be non-negative
    integers.
    """

    shots: int | None
    seed: int = 0
    path: Tuple[int, ...] = ()
    _words: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.shots is not None and self.shots < 1:
            raise ValueError(f"shots must be >= 1 or None, got {self.shots}")
        # SeedSequence's assembled entropy: the seed's words, zero-padded to
        # the pool size as numpy does once a spawn key follows, then the
        # path's words.  Without a key the padding leaves the pool as it is.
        words = _int_words(self.seed)
        words += (0,) * (_POOL_SIZE - len(words))
        object.__setattr__(self, "_words", words + _path_words(self.path))

    @property
    def exact(self) -> bool:
        return self.shots is None

    def split(self, *key) -> "ShotBudget":
        if self.shots is None:
            return self
        path, words = self.path, self._words
        for k in key:
            value, more = (_cached_key_words if isinstance(k, _CACHED_KEYS) else _key_words)(k)
            path += (value,)
            words += more
        # Skip __init__: the parent's words are already checked and assembled.
        child = object.__new__(ShotBudget)
        child.__dict__.update(shots=self.shots, seed=self.seed, path=path, _words=words)
        return child

    def _seed_sequence(self) -> np.random.SeedSequence:
        """Equal in state to the SeedSequence of `seed` with spawn key `path`."""
        return np.random.SeedSequence(np.array(self._words, dtype=np.uint32))

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self._seed_sequence()))

    def binomial(self, p: float) -> int:
        """One binomial(shots, p) draw, equal to `self.rng().binomial(self.shots, p)`.

        Instead of a new generator per draw, one shared Philox is re-keyed
        through `.state`: the key is `generate_state`'s hash of the entropy
        pool, the counter is zero and the buffer empty.  Parallel sweeps
        use processes, so no two threads share that generator.
        """
        gen = _shared_generator()
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": _philox_key(self._seed_sequence().pool)},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen.binomial(self.shots, p)


EXACT = ShotBudget(shots=None)


def make_rng(seed: int, *key) -> np.random.Generator:
    """Philox stream for non-measurement randomness (instance draws etc.)."""
    return ShotBudget(None, seed, tuple(_normalize_key(k) for k in key)).rng()


def derive_seed(master: int, *key) -> int:
    """Deterministic 64-bit child seed for spawning independent studies."""
    budget = ShotBudget(None, master, tuple(_normalize_key(k) for k in key))
    return int(budget._seed_sequence().generate_state(1, np.uint64)[0])


def _sample_pm1(exact_value: float, budget: ShotBudget) -> float:
    """Mean of `shots` outcomes in {+1, -1} with P(+1) = (1 + v)/2."""
    p = min(max((1.0 + exact_value) / 2.0, 0.0), 1.0)
    hits = budget.binomial(p)
    return 2.0 * hits / budget.shots - 1.0


def sample_pauli_expectation(state: StateVector, ops: str, budget: ShotBudget) -> float:
    """Finite-shot estimate of <psi|O|psi> for a non-identity string O."""
    if ops and ops.count("I") == len(ops):
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
    return budget.binomial(p) / budget.shots
