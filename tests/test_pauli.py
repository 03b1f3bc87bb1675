"""Pauli algebra against dense Kronecker oracles."""

import functools
import itertools
import math

import numpy as np
import pytest

from feedbackq import (
    CONTROL_KINDS,
    H2Spec,
    PauliSum,
    build_h2,
    build_ising,
    build_mfi,
    commutator_i,
    format_sum,
    one_norm,
    parse_sum,
    product,
    random_ising,
    random_mfi,
    standard_controls,
)

from _oracles import dense_string, dense_sum, random_pauli_terms

LETTERS = "IXYZ"


def test_single_qubit_products_match_dense():
    """All 16 letter pairs reproduce the dense 2x2 products as one term."""
    for a in LETTERS:
        for b in LETTERS:
            ((ops, coeff),) = product(PauliSum([(a, 1.0)]), PauliSum([(b, 1.0)])).items()
            dense = dense_string(a) @ dense_string(b)
            assert np.allclose(coeff * dense_string(ops), dense)


def test_product_matches_dense_on_random_sums():
    rng = np.random.default_rng(1234)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        ta = random_pauli_terms(rng, n, int(rng.integers(1, 6)))
        tb = random_pauli_terms(rng, n, int(rng.integers(1, 6)))
        a, b = PauliSum(ta), PauliSum(tb)
        got = product(a, b)
        want = dense_sum(ta) @ dense_sum(tb)
        assert np.allclose(dense_sum(list(got.items()) or [("I" * n, 0.0)]), want, atol=1e-12)


def test_commutator_matches_dense_and_is_hermitian():
    """i[A, B] for hermitian A, B stays hermitian and matches the oracle."""
    rng = np.random.default_rng(99)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        ta = random_pauli_terms(rng, n, int(rng.integers(1, 6)))
        tb = random_pauli_terms(rng, n, int(rng.integers(1, 6)))
        got = commutator_i(PauliSum(ta), PauliSum(tb))
        da, db = dense_sum(ta), dense_sum(tb)
        want = 1.0j * (da @ db - db @ da)
        if len(got) == 0:
            assert np.allclose(want, 0.0, atol=1e-12)
        else:
            dense_got = dense_sum(list(got.items()))
            assert np.allclose(dense_got, want, atol=1e-12)
            assert got.is_hermitian


def test_commuting_pairs_drop_out():
    a = parse_sum("+1.0*ZZ")
    b = parse_sum("+2.0*ZI +3.0*IZ +0.25*ZZ")
    assert len(commutator_i(a, b)) == 0


def test_strings_anticommute_matches_dense():
    """One-string commutators keep exactly the anticommuting pairs, as 2i*ab."""
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        sa = "".join(rng.choice(list(LETTERS)) for _ in range(n))
        sb = "".join(rng.choice(list(LETTERS)) for _ in range(n))
        da, db = dense_string(sa), dense_string(sb)
        anti = np.allclose(da @ db + db @ da, 0.0)
        got = commutator_i(PauliSum([(sa, 1.0)]), PauliSum([(sb, 1.0)]))
        assert len(got) == (1 if anti else 0)
        if anti:
            assert np.allclose(dense_sum(list(got.items())), 2j * da @ db)


def test_canonicalization_merges_and_prunes():
    s = PauliSum([("XY", 1.0), ("XY", -1.0), ("ZI", 2.0)])
    assert len(s) == 1
    assert s.coefficient("ZI") == 2.0
    assert s.coefficient("XY") == 0.0


def test_non_finite_coefficients_rejected():
    """NaN is not pruned as a small coefficient, and no infinity enters a sum."""
    for c in (math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(0.0, math.inf)):
        with pytest.raises(ValueError, match="coefficient of ZI is not finite"):
            PauliSum([("IZ", 1.0), ("ZI", c)])
    with pytest.raises(ValueError, match="not finite"):
        PauliSum([("X", math.inf), ("X", -math.inf)])
    with pytest.raises(ValueError, match="not finite"):
        parse_sum("nan*ZI +1.0*IZ")


def test_term_order_is_lexicographic():
    s = PauliSum([("ZI", 1.0), ("IZ", 2.0), ("ZZ", 0.5)])
    assert [ops for ops, _ in s.items()] == sorted(["ZI", "IZ", "ZZ"])


def test_one_norm_excludes_identity():
    s = PauliSum([("II", 5.0), ("ZI", -2.0), ("XY", 1.5)])
    assert one_norm(s) == pytest.approx(3.5)
    assert s.identity_coefficient == pytest.approx(5.0)


def test_addition_subtraction_scalar_match_dense():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        ta = random_pauli_terms(rng, n, 3)
        tb = random_pauli_terms(rng, n, 3)
        c = float(rng.uniform(-3, 3))
        got = PauliSum(ta) + c * PauliSum(tb) - PauliSum(ta) * 0.5
        want = dense_sum(ta) + c * dense_sum(tb) - 0.5 * dense_sum(ta)
        terms = list(got.items()) or [("I" * n, 0.0)]
        assert np.allclose(dense_sum(terms), want, atol=1e-12)


def test_format_round_trip():
    """format_sum output parses back to an equal operator."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        s = PauliSum(random_pauli_terms(rng, n, int(rng.integers(1, 5))))
        assert parse_sum(format_sum(s), n=n) == s


def test_format_empty_and_parse_zero():
    empty = PauliSum([("II", 0.0)])
    assert format_sum(empty) == "0"
    assert parse_sum("0", n=2) == empty


def test_format_rejects_complex_coefficients():
    s = PauliSum([("X", 1.0 + 1.0j)])
    with pytest.raises(ValueError):
        format_sum(s)


def test_repr_is_the_constructor_call():
    """repr covers sums that format_sum refuses, and evaluates back to the sum."""
    rng = np.random.default_rng(6)
    sums = [PauliSum([("X", 1j)]), PauliSum([("X", 1.0 + 1.0j)]), PauliSum([("II", 0.0)])]
    sums += [PauliSum(random_pauli_terms(rng, 3, 4)) for _ in range(5)]
    for s in sums:
        assert eval(repr(s), {"PauliSum": PauliSum}) == s
    assert repr(PauliSum([("X", 1j)])) == "PauliSum([('X', 1j)], n=1)"


def test_mixed_qubit_counts_rejected():
    with pytest.raises(ValueError):
        PauliSum([("XI", 1.0), ("X", 1.0)])


def test_hermitian_flag():
    assert PauliSum([("XY", 1.0)]).is_hermitian
    assert not PauliSum([("XY", 1.0j)]).is_hermitian


def test_diagonal_flag():
    assert PauliSum([("IZ", 1.0), ("ZZ", -0.5), ("II", 2.0)]).is_diagonal
    assert PauliSum([], n=2).is_diagonal
    for flip in ("XI", "IY", "YX"):
        assert not PauliSum([("ZZ", 1.0), (flip, 0.5)]).is_diagonal


def test_pauli_term_products_carry_phases():
    """XY = iZ with coefficients multiplied through."""
    ((ops, coeff),) = product(PauliSum([("X", 2.0)]), PauliSum([("Y", 3.0)])).items()
    assert ops == "Z"
    assert coeff == pytest.approx(6.0j)
    assert np.allclose(coeff * dense_string(ops), 6.0 * dense_string("X") @ dense_string("Y"))


def test_mask_rule_products_match_dense_for_every_string_pair():
    """All 4**n x 4**n string pairs at n = 1..3: product's string and phase are the dense product's."""
    for n in (1, 2, 3):
        strings = ["".join(letters) for letters in itertools.product(LETTERS, repeat=n)]
        dense = {ops: dense_string(ops) for ops in strings}
        for a in strings:
            for b in strings:
                ((ops, phase),) = product(PauliSum([(a, 1.0)]), PauliSum([(b, 1.0)])).items()
                assert phase in (1, -1, 1j, -1j)
                assert np.array_equal(phase * dense[ops], dense[a] @ dense[b]), (a, b)


def _model_drifts():
    yield build_h2(H2Spec.from_table(1.05))
    for n in range(2, 7):
        for seed in (0, 1):
            yield build_ising(random_ising(n, seed))
            if n >= 3:  # the smallest ring
                yield build_mfi(random_mfi(n, seed))


def test_model_commutators_match_dense_and_keep_the_anticommuting_pairs():
    """i[H_q, H0] for every control family on the model drifts, against the dense oracle.

    Each pair of terms contributes exactly when its strings anticommute
    densely, so the result's strings are products of anticommuting pairs.
    """
    dense_of = functools.lru_cache(maxsize=None)(dense_string)
    for h0 in _model_drifts():
        d0 = dense_sum(list(h0.items()))
        for kind in CONTROL_KINDS:
            for h in standard_controls(kind, h0.n):
                got = commutator_i(h, h0)
                dh = dense_sum(list(h.items()))
                want = 1.0j * (dh @ d0 - d0 @ dh)
                assert np.allclose(dense_sum(list(got.items()) or [("I" * h0.n, 0.0)]), want,
                                   rtol=0.0, atol=1e-12)
                kept = set()
                for a, _ in h.items():
                    for b, _ in h0.items():
                        da, db = dense_of(a), dense_of(b)
                        anti = np.array_equal(da @ db, -(db @ da))
                        single = commutator_i(PauliSum([(a, 1.0)]), PauliSum([(b, 1.0)]))
                        assert len(single) == anti, (a, b)
                        if anti:
                            kept.update(ops for ops, _ in product(PauliSum([(a, 1.0)]),
                                                                  PauliSum([(b, 1.0)])).items())
                assert {ops for ops, _ in got.items()} <= kept
