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
(`ShotBudget.split_binomials`); the draws equal per-split draws.  A
sampled sum reads a `TermTable`, built once from a `PauliSum`: its
strings were checked when the sum was built, and it mixes its stream
keys once per entropy length.  A run knows every path it will draw on
before a layer starts, so it keys a block of layers' draws in one array
pass (`KeyTable`) and its budgets read their keys there.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from .pauli import PauliSum
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


def _philox_keys(pools: np.ndarray) -> np.ndarray:
    """The (..., 2) uint64 keys `Philox(seq)` takes for (..., 4) uint32 pools.

    That key is `seq.generate_state(2, np.uint64)`: each pool word hashed
    with a constant that depends only on its position, then the four
    words read little-endian as two 64-bit halves.
    """
    xor, mult = _STATE_STEPS
    words = (pools ^ xor) * mult
    words ^= words >> 16
    return words.astype("<u4", copy=False).view("<u8")


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


def _word_mix(length: int, words: np.ndarray) -> np.ndarray:
    """The words' half of mixing each of `words` in as entropy word `length`: shape (..., 4)."""
    xor, mult = _mix_steps(length)
    mixed = (words[..., None] ^ xor) * mult
    mixed ^= mixed >> 16
    mixed *= _MIX_MULT_R
    return mixed


def _key_mix(length: int, keys: Sequence[int]) -> np.ndarray:
    """`_word_mix` of keys that `_check_batch_keys` accepts, one row per key."""
    return _word_mix(length, np.array(keys, dtype=np.uint32))


def _descend(pools: np.ndarray, length: int, words: np.ndarray | None = None,
             table: "TermTable | None" = None) -> np.ndarray:
    """The pools of the paths below (..., 4) uint32 `pools` at entropy length `length`.

    Each path appends the words along the last axis of `words`, which
    broadcasts against the pools' rows, then, given a table, each of its
    term keys, which adds an axis of the table's length before the pool
    words.  SeedSequence mixes a word past the pool size into each pool
    word in turn, pool[i] = mix(pool[i], hashmix(word)), advancing the
    hash constant once per pool word; the constants depend only on the
    word's position, so every row shares them.
    """
    mixes = []
    if words is not None:
        mixes = [_word_mix(length + i, words[..., i]) for i in range(words.shape[-1])]
    if table is not None:
        pools = pools[..., None, :]
        mixes.append(table.key_mix(length + len(mixes)))
    for mixed in mixes:
        pools = pools * _MIX_MULT_L - mixed
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
    entry non-negative integers.  A budget that a run keys in blocks of
    layers carries their `KeyTable`, and its splits hand it down; a draw
    reads its key there first.
    """

    shots: int | None
    seed: int = 0
    path: Tuple[int, ...] = ()
    _words: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    _keys: "KeyTable | None" = field(default=None, init=False, repr=False, compare=False)

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
        child.__dict__.update(shots=self.shots, seed=self.seed, path=path, _words=words,
                              _keys=self._keys)
        return child

    def _seed_sequence(self) -> np.random.SeedSequence:
        """Equal in state to the SeedSequence of `seed` with spawn key `path`."""
        return np.random.SeedSequence(np.array(self._words, dtype=np.uint32))

    def _keyed(self, table: "KeyTable") -> "ShotBudget":
        """This budget, carrying `table` down to its splits."""
        keyed = object.__new__(ShotBudget)
        keyed.__dict__.update(self.__dict__, _keys=table)
        return keyed

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self._seed_sequence()))

    def binomial(self, p: float) -> int:
        """One binomial(shots, p) draw, equal to `self.rng().binomial(self.shots, p)`."""
        key = None if self._keys is None else self._keys.single(self.path)
        if key is None:
            key = _philox_key(self._seed_sequence().pool)
        return _binomials(self.shots, [key], (p,))[0]

    def split_binomials(self, keys: Sequence[int], probs: Sequence[float]) -> List[int]:
        """`[self.split(k).binomial(p) for k, p in zip(keys, probs)]`, keyed in one pass.

        The children's pools and Philox keys come from this budget's pool
        in array arithmetic instead of one SeedSequence per child.  Each
        key must be an integer in [0, 2**32), which is one entropy word;
        the keys are checked on every call.
        """
        _check_batch_keys(keys)
        words = np.array(keys, dtype=np.uint32)[:, None]
        pools = _descend(self._seed_sequence().pool, len(self._words), words)
        return _binomials(self.shots, _philox_keys(pools).tolist(), probs)

    def _child_binomials(self, table: "TermTable", probs: Sequence[float]) -> List[int]:
        """`split_binomials(table.keys, probs)`, keyed from this budget's key table if it holds them."""
        keys = None if self._keys is None else self._keys.batch(self.path, table)
        if keys is None:
            keys = _philox_keys(_descend(self._seed_sequence().pool, len(self._words), table=table))
        return _binomials(self.shots, keys.tolist(), probs)


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


def sample_pauli_expectation(state: StateVector, ops: str, budget: ShotBudget) -> float:
    """Finite-shot estimate of <psi|O|psi> for a non-identity string O."""
    _refuse_identity(ops)
    value = pauli_expectation(state, ops)
    if budget.exact:
        return value
    return _sample_pm1(value, budget)


class TermTable:
    """What an estimate of <h> reads from a hermitian sum h, built once per sum.

    `strings` are h's non-identity strings in canonical order, which the
    `PauliSum` constructor has checked; `keys` their stream keys, their
    positions in h; `coeffs` their real coefficients; `identity` the
    identity coefficient, which is added classically; `sum` is h.  The
    keys' half of the stream mix depends only on the budget's entropy
    length, so the table keeps one per length.
    """

    __slots__ = ("sum", "strings", "keys", "coeffs", "identity", "_mixes")

    def __init__(self, h: PauliSum):
        if not h.is_hermitian:
            raise ValueError("a term table needs a hermitian sum")
        ident = "I" * h.n
        rows = [(k, ops, c.real) for k, (ops, c) in enumerate(h.items()) if ops != ident]
        self.sum = h
        self.keys = tuple(k for k, _, _ in rows)
        self.strings = tuple(ops for _, ops, _ in rows)
        self.coeffs = tuple(c for _, _, c in rows)
        self.identity = h.identity_coefficient.real
        self._mixes: dict = {}

    def key_mix(self, length: int) -> np.ndarray:
        mixed = self._mixes.get(length)
        if mixed is None:
            mixed = self._mixes[length] = _key_mix(length, self.keys)
        return mixed


class KeyTable:
    """The Philox keys of every sampled draw in a block of a run's layers.

    A run's controller call for layer k and channel q draws below
    `root.split(k, q)`, one path suffix per scalar.  `singles` holds the
    keys of each single draw's suffix, (layers, channels, suffixes, 2)
    uint64, and `columns` maps a suffix to its place on the third axis;
    `batches` maps the suffix of a sampled sum to one (term table, keys)
    pair per channel, the keys (layers, terms, 2).  A path the table
    does not hold misses and is keyed through its SeedSequence.  Keys
    are a function of the path, so a hit draws what that route draws.
    """

    __slots__ = ("offset", "first", "layers", "channels", "columns", "singles", "batches")

    def __init__(
        self,
        root: ShotBudget,
        first: int,
        layers: int,
        channels: int,
        singles: Sequence[tuple],
        batches: Sequence[Tuple[tuple, Sequence[TermTable]]],
    ):
        """Key layers first..first+layers-1 (below 2**32) of `channels` channels below `root`.

        `singles` lists the non-empty single-draw suffixes and `batches`
        pairs each sum's suffix with its term table on every channel.
        """
        self.offset, self.first, self.layers, self.channels = len(root.path), first, layers, channels
        rows = np.empty((layers, channels, 2), dtype=np.uint32)
        rows[..., 0] = np.arange(first, first + layers)[:, None]
        rows[..., 1] = np.arange(channels)
        length = len(root._words)
        pools = _descend(root._seed_sequence().pool, length, rows)
        length += 2

        # Suffixes of equal word counts are keyed in one pass each.
        widths: dict = {}
        for path in dict.fromkeys(tuple(_normalize_key(k) for k in suffix) for suffix in singles):
            widths.setdefault(len(_path_words(path)), []).append(path)
        groups = list(widths.values())
        self.columns = {path: col for col, path in enumerate(p for group in groups for p in group)}
        parts = [
            _philox_keys(_descend(pools[:, :, None], length,
                                  np.array([_path_words(path) for path in group], dtype=np.uint32)))
            for group in groups
        ]
        self.singles = np.concatenate(parts, axis=2) if parts else None

        self.batches = {}
        for suffix, tables in batches:
            path = tuple(_normalize_key(k) for k in suffix)
            words = np.array(_path_words(path), dtype=np.uint32)
            entry = [None] * channels
            for table in {id(t): t for t in tables}.values():
                qs = [q for q, t in enumerate(tables) if t is table]
                keys = _philox_keys(_descend(pools[:, qs], length, words, table))
                for i, q in enumerate(qs):
                    entry[q] = (table, keys[:, i])
            self.batches[path] = entry

    def _row(self, path: Tuple[int, ...]) -> Tuple[int, int] | None:
        """The (layer index, channel) of a path below one of the table's calls, or None."""
        layer, q = path[self.offset] - self.first, path[self.offset + 1]
        return (layer, q) if 0 <= layer < self.layers and q < self.channels else None

    def single(self, path: Tuple[int, ...]) -> List[int] | None:
        """The key of a single draw on `path`, or None."""
        col = self.columns.get(path[self.offset + 2:])
        row = None if col is None else self._row(path)
        return None if row is None else self.singles[row + (col,)].tolist()

    def batch(self, path: Tuple[int, ...], table: TermTable) -> np.ndarray | None:
        """The (terms, 2) keys of `table`'s streams below `path`, or None."""
        entry = self.batches.get(path[self.offset + 2:])
        row = None if entry is None else self._row(path)
        if row is None or entry[row[1]][0] is not table:
            return None
        return entry[row[1]][1][row[0]]


def sample_sum(state: StateVector, table: TermTable, budget: ShotBudget) -> float:
    """<h> for h = `table.sum`, summed in term order after the identity coefficient.

    Each term's value is `sample_pauli_expectation(state, ops,
    budget.split(k))` for its string and key, the streams keyed in one
    pass; an exact budget gives <h> itself.
    """
    values = [pauli_expectation(state, ops) for ops in table.strings]
    if not budget.exact:
        probs = [_pm1_probability(v) for v in values]
        hits = budget._child_binomials(table, probs)
        values = [_pm1_mean(h, budget.shots) for h in hits]
    total = table.identity
    for coeff, value in zip(table.coeffs, values):
        total += coeff * value
    return total


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
