"""Shot-noise estimators: determinism, unbiasedness, and scaling."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feedbackq import (
    EXACT,
    PauliSum,
    ShotBudget,
    StateVector,
    derive_seed,
    make_rng,
    sample_hadamard_test,
    sample_pauli_expectation,
    sample_zero_fraction,
)
from feedbackq.sampling import KeyTable, TermTable, sample_sum

from _oracles import dense_string, philox_stream, random_state, seed_sequence

PROPERTY = settings(max_examples=150, deadline=None, database=None)

seeds = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]),
    st.integers(0, 2**64 - 1),
    st.integers(2**64, 2**127),
    st.integers(2**128, 2**200),  # longer than the 128-bit pool: no zero padding
)
keys = st.one_of(
    st.integers(0, 2**64 - 1),
    st.integers(2**64, 2**80),
    st.integers(-(2**40), -1),
    st.integers(0, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.booleans(),
    st.text(max_size=4),
    st.tuples(st.integers(0, 9), st.text(max_size=2)),
)
paths = st.lists(keys, max_size=4)
probabilities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def _sv(amps):
    return StateVector.from_amplitudes(np.asarray(amps, dtype=complex))


def test_exact_budget_passes_values_through():
    rng = np.random.default_rng(1)
    state = _sv(random_state(rng, 3))
    exact = np.real(state.amps.conj() @ dense_string("XYZ") @ state.amps)
    assert sample_pauli_expectation(state, "XYZ", EXACT) == pytest.approx(exact, abs=1e-12)
    assert ShotBudget(None).exact
    assert not ShotBudget(100).exact


def test_split_streams_are_independent_and_deterministic():
    """The same key always yields the same stream; sibling keys differ."""
    base = ShotBudget(500, seed=9)
    a1 = base.split("layer", 3).rng().random(4)
    a2 = base.split("layer", 3).rng().random(4)
    b = base.split("layer", 4).rng().random(4)
    assert np.allclose(a1, a2)
    assert not np.allclose(a1, b)


def test_split_stream_draws_are_pinned():
    """Hard-coded draws: a change to key hashing or stream keying shows here."""
    draws = ShotBudget(500, seed=9).split("layer", 3).rng().random(4)
    assert draws.tolist() == [
        0.9265362351915336,
        0.057713708542594166,
        0.12314436471951551,
        0.17563748202327167,
    ]


@PROPERTY
@given(seed=seeds, first=paths, second=paths, shots=st.integers(1, 10**6),
       p=probabilities, k=st.integers(1, 8))
@example(seed=0, first=[], second=[], shots=1000, p=0.5, k=4)
@example(seed=2**200 + 1, first=[], second=[], shots=1000, p=1.0, k=4)
def test_streams_match_numpy_keying(seed, first, second, shots, p, k):
    """Every draw equals the one from SeedSequence(seed, spawn_key=path).

    The split chain covers both word rules: padding the seed before the
    first key, and extending an already keyed budget.
    """
    parent = ShotBudget(shots, seed).split(*first)
    child = parent.split(*second)
    path = child.path
    for budget in (child, ShotBudget(shots, seed, path)):
        assert budget == child
        assert np.array_equal(budget.rng().random(k), philox_stream(seed, path).random(k))
        want = philox_stream(seed, path).binomial(shots, p)
        assert budget.binomial(p) == want
        parent.binomial(0.5)  # the shared generator is re-keyed, not continued
        assert budget.binomial(p) == want
    keys = first + second
    assert np.array_equal(make_rng(seed, *keys).random(k), philox_stream(seed, path).random(k))
    assert derive_seed(seed, *keys) == int(seed_sequence(seed, path).generate_state(1, np.uint64)[0])


@PROPERTY
@given(seed=seeds, prefix=st.lists(st.one_of(st.integers(0, 2**64 - 1), st.text(max_size=4)),
                                   max_size=3),
       shots=st.integers(1, 10**6),
       draws=st.lists(st.tuples(st.one_of(st.just(2**32 - 1), st.integers(0, 2**32 - 1)),
                                probabilities), max_size=12))
@example(seed=2**64, prefix=["comm"], shots=1000, draws=[])
@example(seed=0, prefix=[2**64 - 1, "h0"], shots=200, draws=[(2**32 - 1, 0.5)])
@example(seed=2**100 + 3, prefix=[1, "h0"], shots=200,
         draws=[(k, k / 20) for k in range(20)] + [(2**32 - 1, 1.0)])
def test_split_binomials_match_per_split_draws(seed, prefix, shots, draws):
    """One split per key draws what numpy's keying draws."""
    budget = ShotBudget(shots, seed).split(*prefix)
    want = [philox_stream(seed, budget.path + (k,)).binomial(shots, p) for k, p in draws]
    assert [budget.split(k).binomial(p) for k, p in draws] == want


def _philox_key(seed, path):
    return philox_stream(seed, path).bit_generator.state["state"]["key"].tolist()


_STRINGS = ["".join(p) for p in itertools.product("IXYZ", repeat=2)]
path_keys = st.one_of(st.integers(0, 2**64 - 1), st.text(max_size=4))
term_sums = st.tuples(st.sets(st.sampled_from(_STRINGS[1:]), max_size=5), st.booleans()).map(
    lambda drawn: PauliSum([(ops, 1.0) for ops in drawn[0]] + [("II", 0.5)] * drawn[1], n=2))


@PROPERTY
@given(seed=seeds, prefix=st.lists(path_keys, max_size=6),
       first=st.one_of(st.just(2**32 - 3), st.integers(0, 2**32 - 3)),
       channels=st.integers(1, 3),
       singles=st.lists(st.lists(path_keys, max_size=4).map(tuple), max_size=4),
       sums=st.lists(st.tuples(st.lists(path_keys, min_size=1, max_size=3).map(tuple), term_sums,
                               term_sums), max_size=2, unique_by=lambda drawn: drawn[0]))
@example(seed=2**64 + 5, prefix=[], first=0, channels=2, singles=[("ctrl", 0, 0, 1)],
         sums=[(("comm",), PauliSum([("XZ", 1.0), ("ZY", 2.0)]), PauliSum([("XX", 1.0)]))])
def test_key_table_holds_numpy_keys(seed, prefix, first, channels, singles, sums):
    """Every key a table gives is the Philox key of SeedSequence(seed, spawn_key=path).

    A table holds three layers of every channel below a root budget and
    keys each suffix on its first lookup: single draws (the empty suffix
    is the call's own path), and each sum's term streams, with channels
    alternating between two term tables.  Paths outside the block miss.
    """
    root = ShotBudget(10, seed).split(*prefix)
    batches = [(suffix, [TermTable(h) for h in pair] * channels) for suffix, *pair in sums]
    batches = [(suffix, tables[:channels]) for suffix, tables in batches]
    table = KeyTable(root, first, 3, channels)
    for layer, q in itertools.product(range(first, first + 3), range(channels)):
        call = root.split(layer, q)
        for suffix in singles:
            path = call.split(*suffix).path
            assert table.single(path) == _philox_key(seed, path)
        for suffix, tables in batches:
            path = call.split(*suffix).path
            keys = table.batch(path, tables[q])
            assert keys.tolist() == [_philox_key(seed, path + (k,)) for k in tables[q].keys]
    for layer, q in ((first - 1, 0), (first + 3, 0), (first, channels)):
        for suffix in singles:
            assert table.single(root.split(layer, q, *suffix).path) is None
        for suffix, tables in batches:
            assert table.batch(root.split(layer, q, *suffix).path, tables[0]) is None


def _key_block():
    """A key table of layers 5-8 and channels 0-2 below a split root."""
    root = ShotBudget(10, 2**64 + 7).split("run", 2)
    return root, KeyTable(root, 5, 4, 3)


def test_key_table_keys_a_suffix_first_asked_at_the_last_layer():
    """A suffix first asked for at the block's last layer is keyed for every layer."""
    root, table = _key_block()
    terms = TermTable(PauliSum([("XZ", 1.0), ("ZY", 2.0), ("II", 0.5)]))
    last = root.split(8, 2, "ctrl", 1, 0, 1).path
    assert table.single(last) == _philox_key(root.seed, last)
    sum_path = root.split(8, 1, 0, "h0").path
    assert table.batch(sum_path, terms).tolist() == [_philox_key(root.seed, sum_path + (k,))
                                                     for k in terms.keys]
    for layer, q in itertools.product(range(5, 9), range(3)):
        path = root.split(layer, q, "ctrl", 1, 0, 1).path
        assert table.single(path) == _philox_key(root.seed, path)
    for layer in range(5, 9):
        path = root.split(layer, 1, 0, "h0").path
        assert table.batch(path, terms).tolist() == [_philox_key(root.seed, path + (k,))
                                                     for k in terms.keys]
    assert len(table.singles) == len(table.batches) == 1


def test_key_table_rekeys_a_slot_for_another_term_table():
    """Another term table on a held slot is keyed anew, and its keys are numpy's."""
    root, table = _key_block()
    one = TermTable(PauliSum([("XZ", 1.0), ("ZY", 2.0)]))
    other = TermTable(PauliSum([("XX", 1.0), ("YI", 1.0), ("IZ", 3.0)]))
    for terms in (one, other, TermTable(one.sum), one):
        for layer in range(5, 9):
            path = root.split(layer, 0, "comm").path
            assert table.batch(path, terms).tolist() == [_philox_key(root.seed, path + (k,))
                                                         for k in terms.keys]
    # The slot holds one table's keys at a time.
    assert len(table.batches) == 1


def test_key_table_misses_paths_outside_its_block():
    """A path below another layer or channel misses and keys nothing."""
    root, table = _key_block()
    terms = TermTable(PauliSum([("XZ", 1.0)]))
    outside = [root.split(4, 0, "ref", 0, 1), root.split(9, 0, "ref", 0, 1),
               root.split(5, 3, "ref", 0, 1), root.split(2**40, 0), root.split(8, 2**40, "h0")]
    for budget in outside:
        assert table.single(budget.path) is None
        assert table.batch(budget.path, terms) is None
    assert not table.singles and not table.batches


def test_exact_budget_split_is_the_budget_itself():
    budget = ShotBudget(None, seed=123)
    assert budget.split("comm", 4).split(2, 1) is budget
    assert EXACT.split("ctrl", 0, 1, 0) is EXACT
    sampled = ShotBudget(10, seed=123)
    assert sampled.split("comm", 4).path != sampled.path


def test_split_keys_keep_their_own_entries():
    """Equal keys of another type or repr stay apart when splits are memoized.

    True is hashed through its repr, while 1 and np.int64(1) are the
    integer 1; 0.0 and -0.0 differ in repr, and a list is unhashable.
    """
    from feedbackq.sampling import _normalize_key

    budget = ShotBudget(10, seed=3)
    keys = (1, True, np.int64(1), 0.0, -0.0, [1])
    for _ in range(2):  # the second round reads the memo
        paths = [budget.split(k).path for k in keys]
        assert paths == [(_normalize_key(k),) for k in keys]
        assert paths[0] == paths[2] == (1,)
        assert len({paths[0], paths[1], paths[3], paths[4], paths[5]}) == 5


def test_string_keys_hash_stably():
    s1 = derive_seed(7, "ctrl", 0)
    s2 = derive_seed(7, "ctrl", 0)
    s3 = derive_seed(7, "ctrl", 1)
    assert s1 == s2 != s3
    assert make_rng(5, "x").random() == make_rng(5, "x").random()


def test_sampled_expectation_is_unbiased():
    """Mean over many seeds approaches the exact value within 4 standard errors."""
    rng = np.random.default_rng(77)
    state = _sv(random_state(rng, 3))
    exact = np.real(state.amps.conj() @ dense_string("ZXI") @ state.amps)
    m = 200
    reps = 400
    draws = np.array([
        sample_pauli_expectation(state, "ZXI", ShotBudget(m, seed=derive_seed(1, "u", r)))
        for r in range(reps)
    ])
    se = draws.std(ddof=1) / np.sqrt(reps)
    assert abs(draws.mean() - exact) < 4.0 * se


def test_sampling_error_scales_inverse_sqrt_shots():
    """Standard deviation shrinks close to 10x from m to 100 m."""
    rng = np.random.default_rng(5150)
    state = _sv(random_state(rng, 2))
    reps = 300

    def spread(m):
        draws = np.array([
            sample_pauli_expectation(state, "XY", ShotBudget(m, seed=derive_seed(2, m, r)))
            for r in range(reps)
        ])
        return draws.std(ddof=1)

    ratio = spread(100) / spread(10000)
    assert 8.0 < ratio < 12.0


def test_hadamard_parts_match_dense_inner_products():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        ops = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        a, b = _sv(random_state(rng, n)), _sv(random_state(rng, n))
        dense = a.amps.conj() @ dense_string(ops) @ b.amps
        re = sample_hadamard_test(a, ops, b, "real", EXACT)
        im = sample_hadamard_test(a, ops, b, "imag", EXACT)
        assert re == pytest.approx(dense.real, abs=1e-11)
        assert im == pytest.approx(dense.imag, abs=1e-11)


def test_hadamard_sampled_is_unbiased():
    rng = np.random.default_rng(19)
    a, b = _sv(random_state(rng, 2)), _sv(random_state(rng, 2))
    dense = a.amps.conj() @ dense_string("ZX") @ b.amps
    reps = 400
    draws = np.array([
        sample_hadamard_test(a, "ZX", b, "real", ShotBudget(150, seed=derive_seed(3, r)))
        for r in range(reps)
    ])
    se = draws.std(ddof=1) / np.sqrt(reps)
    assert abs(draws.mean() - dense.real) < 4.0 * se


def test_zero_fraction_estimates_probability():
    prob = 0.3
    exact = sample_zero_fraction(prob, EXACT)
    assert exact == pytest.approx(prob)
    reps = 300
    draws = np.array([
        sample_zero_fraction(prob, ShotBudget(200, seed=derive_seed(4, r)))
        for r in range(reps)
    ])
    se = draws.std(ddof=1) / np.sqrt(reps)
    assert abs(draws.mean() - prob) < 4.0 * se
    assert draws.std(ddof=1) == pytest.approx(np.sqrt(prob * (1 - prob) / 200), rel=0.25)


def test_identity_expectation_rejected():
    """Identity, empty and malformed strings all raise, sampled or exact; none reaches a table.

    A table's identity term is a constant, never a measured string, and
    `PauliSum` refuses the empty and malformed strings a table could read.
    """
    state = StateVector.plus(2)
    for ops in ("II", "", "IQ"):
        for budget in (EXACT, ShotBudget(10)):
            with pytest.raises(ValueError):
                sample_pauli_expectation(state, ops, budget)
    table = TermTable(PauliSum([("II", 0.5), ("XZ", 1.0)]))
    assert table.strings == ("XZ",) and table.keys == (1,) and table.identity == 0.5
    for budget in (EXACT, ShotBudget(10)):
        want = 0.5 + sample_pauli_expectation(state, "XZ", budget.split(1))
        assert sample_sum(state, table, budget) == want
    assert sample_sum(state, TermTable(PauliSum([("II", 0.5)])), ShotBudget(10)) == 0.5
    with pytest.raises(ValueError, match="hermitian"):
        TermTable(PauliSum([("XZ", 1j)]))
    for ops, message in (("", "at least one qubit"), ("IQ", "invalid Pauli letters")):
        with pytest.raises(ValueError, match=message):
            PauliSum([("XZ", 1.0), (ops, 1.0)])


def test_out_of_range_probability_rejected():
    with pytest.raises(ValueError):
        sample_zero_fraction(1.5, EXACT)
    with pytest.raises(ValueError):
        sample_zero_fraction(-0.2, ShotBudget(10))


def test_budget_shots_validated():
    # A fractional count would draw int(shots) shots but divide by shots.
    for shots in (0, -5, 2.5, True, "100", np.float64(100.0)):
        with pytest.raises(ValueError):
            ShotBudget(shots)
    assert ShotBudget(np.int64(100)).shots == 100
    # numpy's binomial takes counts below 2**63; a larger budget would fail mid-run.
    for shots in (2**63, np.uint64(2**63), 10**20):
        with pytest.raises(ValueError, match="below 2"):
            ShotBudget(shots)
    assert ShotBudget(2**63 - 1).shots == 2**63 - 1
    for seed, path in ((-1, ()), (1.5, ()), ("7", ()), (0, (-3,)), (0, (2, 0.5)), (0, ("x",))):
        with pytest.raises(ValueError):
            ShotBudget(100, seed, path)
        with pytest.raises(ValueError):
            ShotBudget(None, seed, path)
