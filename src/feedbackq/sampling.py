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
draw never rebuilds them.  An estimator with one stream per term keys
all of them in one array pass from their common prefix
(`ShotBudget.split_binomials`); the draws equal per-split draws.  The
run-invariant work of that path is done once: each measured string is
checked once per process, and each key list is validated and mixed
once per entropy length.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from .pauli import _check_ops
from .states import StateVector, _check_count, pauli_expectation, pauli_matrix_element

_PARTS = ("real", "imag")

# numpy's SeedSequence constants: the entropy pool size, the hash that
# mixes entropy words into the pool, and the hash `generate_state` runs
# over the pool.
_POOL_SIZE = 4
# numpy's binomial takes counts below 2**63 (a C long); more fails mid-draw.
_SHOTS_LIMIT = 1 << 63
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
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


def _hash_steps(const: int, mult: int) -> Tuple[np.ndarray, np.ndarray]:
    """A SeedSequence hash constant before and after each of its next four steps.

    Entry i pairs with pool word i, so the arrays broadcast along the rows
    of a batch of pools.
    """
    consts = np.array([const * pow(mult, i, 1 << 32) & _MASK32 for i in range(_POOL_SIZE + 1)],
                      dtype=np.uint32)
    return consts[:-1], consts[1:]


_STATE_STEPS = _hash_steps(_INIT_B, _MULT_B)
_STATE_CONSTS = tuple(_STATE_STEPS[0].tolist() + _STATE_STEPS[1].tolist())


@lru_cache(maxsize=64)
def _mix_steps(length: int) -> Tuple[np.ndarray, np.ndarray]:
    """The hash constants that mix entropy word `length` (from 0) into the four pool words.

    Mixing the first four words into the pool takes 16 hash steps and each
    later word four, so the constant depends only on the word's position:
    before word `length` it is INIT_A * MULT_A**(4 * length).
    """
    return _hash_steps(_INIT_A * pow(_MULT_A, _POOL_SIZE * length, 1 << 32), _MULT_A)


def _philox_keys(pools: np.ndarray) -> List[List[int]]:
    """The key `Philox(seq)` takes for each row of an (m, 4) uint32 array of pools.

    That key is `seq.generate_state(2, np.uint64)`: each pool word hashed
    with a constant that depends only on its position, then the four
    words read little-endian as two 64-bit halves.
    """
    xor, mult = _STATE_STEPS
    words = (pools ^ xor) * mult
    words ^= words >> 16
    return words.astype("<u4", copy=False).view("<u8").tolist()


def _philox_key(pool: np.ndarray) -> List[int]:
    """`_philox_keys` of one pool, in Python ints: cheaper than a one-row array pass."""
    p0, p1, p2, p3 = pool.tolist()
    x0, x1, x2, x3, m0, m1, m2, m3 = _STATE_CONSTS
    w0, w1 = (p0 ^ x0) * m0 & _MASK32, (p1 ^ x1) * m1 & _MASK32
    w2, w3 = (p2 ^ x2) * m2 & _MASK32, (p3 ^ x3) * m3 & _MASK32
    return [w0 ^ w0 >> 16 | (w1 ^ w1 >> 16) << 32, w2 ^ w2 >> 16 | (w3 ^ w3 >> 16) << 32]


def _check_batch_keys(keys: Sequence) -> None:
    for k in keys:
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k <= _MASK32:
            raise ValueError(f"batched split keys must be integers in [0, 2**32), got {k!r}")


@lru_cache(maxsize=256)
def _key_mix(length: int, keys: Tuple, types: Tuple[type, ...]) -> np.ndarray:
    """The key-dependent half of `_child_pools`, once `_check_batch_keys` accepts the keys.

    `types` is part of the cache key only: True == 1 == 1.0 hash alike,
    and each must be validated as itself.
    """
    _check_batch_keys(keys)
    xor, mult = _mix_steps(length)
    mixed = (np.array(keys, dtype=np.uint32)[:, None] ^ xor) * mult
    mixed ^= mixed >> 16
    mixed *= _MIX_MULT_R
    mixed.flags.writeable = False
    return mixed


def _child_pools(pool: np.ndarray, length: int, keys: Sequence[int]) -> np.ndarray:
    """Pools of the SeedSequences that extend `length` words of entropy by one key each.

    `pool` is the pool those `length` words give.  SeedSequence mixes an
    entropy word past the pool size into each pool word in turn,
    pool[i] = mix(pool[i], hashmix(word)), advancing the hash constant
    once per pool word.  Every key is one word at the same position, so
    all children share those constants, and the keys' half of the mix is
    kept per (length, keys).  Returns one pool per row.  Raises
    ValueError for a key that is not one entropy word.
    """
    keys = tuple(keys)
    try:
        mixed = _key_mix(length, keys, tuple(map(type, keys)))
    except TypeError:  # an unhashable key, never a valid one
        _check_batch_keys(keys)
        raise
    pools = pool * _MIX_MULT_L - mixed
    pools ^= pools >> 16
    return pools


@lru_cache(maxsize=1)
def _shared_generator() -> Tuple[np.random.Generator, dict]:
    """One Philox generator and the state that re-keys it, both built on first use.

    Creating them at import costs every import memory.  The state has a
    zero counter and an empty buffer; a draw sets only its key.
    """
    gen = np.random.Generator(np.random.Philox(0))
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen, state


def _binomials(shots: int, keys: List[List[int]], probs: Sequence[float]) -> List[int]:
    """One binomial(shots, p) draw from a fresh Philox stream per (key, p).

    Instead of a new generator per draw, the shared Philox is re-keyed
    through `.state`.  Parallel sweeps use processes, so no two threads
    share that generator.
    """
    gen, state = _shared_generator()
    bit_generator, inner = gen.bit_generator, state["state"]
    draws = []
    for key, p in zip(keys, probs):
        inner["key"] = key
        bit_generator.state = state
        draws.append(gen.binomial(shots, p))
    return draws


@dataclass(frozen=True)
class ShotBudget:
    """Shots per estimated scalar plus the stream that pays for them.

    shots=None is the exact sentinel: estimators return the underlying
    exact value untouched, so an exact budget never opens a stream and
    `split` returns it unchanged.  Otherwise `path` is the split history;
    `split` extends it, and `rng` opens a Philox stream keyed by
    (seed, path).  Shots other than None must be a Python or numpy
    integer in [1, 2**63) (not a bool), and the seed and every path
    entry non-negative integers.
    """

    shots: int | None
    seed: int = 0
    path: Tuple[int, ...] = ()
    _words: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.shots is not None:
            _check_count("shots", self.shots)
            if self.shots >= _SHOTS_LIMIT:
                raise ValueError(f"shots must be below 2**63, got {self.shots}")
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
        """One binomial(shots, p) draw, equal to `self.rng().binomial(self.shots, p)`."""
        return _binomials(self.shots, [_philox_key(self._seed_sequence().pool)], (p,))[0]

    def split_binomials(self, keys: Sequence[int], probs: Sequence[float]) -> List[int]:
        """`[self.split(k).binomial(p) for k, p in zip(keys, probs)]`, keyed in one pass.

        The children's pools and Philox keys come from this budget's pool
        in array arithmetic instead of one SeedSequence per child.  Each
        key must be an integer in [0, 2**32), which is one entropy word.
        """
        pools = _child_pools(self._seed_sequence().pool, len(self._words), keys)
        return _binomials(self.shots, _philox_keys(pools), probs)


EXACT = ShotBudget(shots=None)


def make_rng(seed: int, *key) -> np.random.Generator:
    """Philox stream for non-measurement randomness (instance draws etc.)."""
    return ShotBudget(None, seed, tuple(_normalize_key(k) for k in key)).rng()


def derive_seed(master: int, *key) -> int:
    """Deterministic 64-bit child seed for spawning independent studies."""
    budget = ShotBudget(None, master, tuple(_normalize_key(k) for k in key))
    return int(budget._seed_sequence().generate_state(1, np.uint64)[0])


def _pm1_probability(exact_value: float) -> float:
    """P(+1) = (1 + v)/2 of a {+1, -1} outcome with mean v."""
    return min(max((1.0 + exact_value) / 2.0, 0.0), 1.0)


def _pm1_mean(hits: int, shots: int) -> float:
    """Mean of `shots` outcomes in {+1, -1} of which `hits` are +1."""
    return 2.0 * hits / shots - 1.0


def _sample_pm1(exact_value: float, budget: ShotBudget) -> float:
    return _pm1_mean(budget.binomial(_pm1_probability(exact_value)), budget.shots)


def _refuse_identity(ops: str) -> None:
    if ops and ops.count("I") == len(ops):
        raise ValueError("identity strings are not measured; fold them in classically")


# Strings that passed `_refuse_identity` and `_check_ops`.  A string is
# checked once per process; the set is emptied when it reaches the limit.
_MEASURABLE: set = set()
_MEASURABLE_LIMIT = 1 << 16


def sample_pauli_expectation(state: StateVector, ops: str, budget: ShotBudget) -> float:
    """Finite-shot estimate of <psi|O|psi> for a non-identity string O."""
    _refuse_identity(ops)
    value = pauli_expectation(state, ops)
    if budget.exact:
        return value
    return _sample_pm1(value, budget)


def sample_pauli_expectations(
    state: StateVector, terms: Sequence[Tuple[int, str]], budget: ShotBudget
) -> List[float]:
    """`sample_pauli_expectation(state, ops, budget.split(k))` for each (k, ops) in terms.

    The terms' streams are keyed in one pass (`split_binomials`), so each
    k must be an integer in [0, 2**32).  Identity, empty and malformed
    strings are refused as in `sample_pauli_expectation`, before any
    value is computed; a string that passed is not checked again.
    """
    unchecked = [ops for _, ops in terms if ops not in _MEASURABLE]
    if unchecked:
        for ops in unchecked:  # identities first, then empty and malformed strings
            _refuse_identity(ops)
        for ops in unchecked:
            _check_ops(ops)
        if len(_MEASURABLE) >= _MEASURABLE_LIMIT:
            _MEASURABLE.clear()
        _MEASURABLE.update(unchecked)
    values = [pauli_expectation(state, ops) for _, ops in terms]
    if budget.exact:
        return values
    probs = [_pm1_probability(v) for v in values]
    hits = budget.split_binomials([k for k, _ in terms], probs)
    return [_pm1_mean(h, budget.shots) for h in hits]


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
