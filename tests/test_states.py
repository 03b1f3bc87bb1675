"""Statevector kernels against dense evolution oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest

from feedbackq import (
    PauliSum,
    StateVector,
    TrotterPlan,
    apply_pauli_exp,
    apply_sum_trotter,
    build_mfi,
    dense_matrix,
    diagonal_values,
    expectation,
    fidelity,
    inner,
    pauli_expectation,
    pauli_matrix_element,
    random_mfi,
    reference_spectrum,
)
from feedbackq import states
from feedbackq.pauli import HERMITIAN_TOL
from feedbackq.states import apply_pauli

from _oracles import (
    dense_evolve,
    dense_string,
    dense_sum,
    random_pauli_terms,
    random_state,
)


def _sv(amps):
    return StateVector.from_amplitudes(np.asarray(amps, dtype=complex))


def test_pauli_action_matches_dense():
    """Masked string application equals the dense matrix product."""
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        ops = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        amps = random_state(rng, n)
        got = apply_pauli(_sv(amps), ops)
        assert np.allclose(got, dense_string(ops) @ amps, atol=1e-12)


def test_qubit0_is_most_significant():
    """X on qubit 0 flips the high-order bit of the index."""
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0
    got = apply_pauli(_sv(amps), "XI")
    assert got[2] == pytest.approx(1.0)
    got = apply_pauli(_sv(amps), "IX")
    assert got[1] == pytest.approx(1.0)


def test_exp_matches_dense_exponential():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        ops = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        theta = float(rng.uniform(-2.0, 2.0))
        amps = random_state(rng, n)
        got = apply_pauli_exp(_sv(amps), ops, theta)
        want = dense_evolve(amps, dense_string(ops), theta)
        assert np.allclose(got.amps, want, atol=1e-10)
        assert abs(np.linalg.norm(got.amps) - 1.0) < 1e-12


def test_trotter_single_slice_is_term_product():
    """One slice applies the per-term exponentials in canonical order."""
    rng = np.random.default_rng(3)
    terms = random_pauli_terms(rng, 3, 4)
    h = PauliSum(terms)
    amps = random_state(rng, 3)
    plan = TrotterPlan.from_sum(h, 0.3)
    got = plan.apply(_sv(amps))
    cur = amps.copy()
    for ops, coeff in h.items():
        cur = dense_evolve(cur, dense_string(ops), 0.3 * coeff.real)
    assert np.allclose(got.amps, cur, atol=1e-10)


def test_trotter_plan_refuses_non_integer_slices():
    plan = TrotterPlan.from_sum(PauliSum([("XZ", 0.5)]), 0.3)
    state = StateVector.plus(2)
    for bad in (0, -1, 1.5, 2.0, True):
        with pytest.raises(ValueError, match="slices must be an integer >= 1"):
            plan.apply(state, slices=bad)


def test_trotter_error_shrinks_linearly_in_slice_count():
    """First-order splitting error falls as 1/slices."""
    rng = np.random.default_rng(8)
    terms = random_pauli_terms(rng, 3, 4)
    h = PauliSum(terms)
    amps = random_state(rng, 3)
    exact = dense_evolve(amps, dense_sum(terms), 0.4)

    def err(slices):
        got = apply_sum_trotter(_sv(amps), h, 0.4, slices=slices)
        return np.linalg.norm(got.amps - exact)

    e1, e4, e16 = err(1), err(4), err(16)
    assert e4 < e1 / 2.5
    assert e16 < e4 / 2.5


def test_commuting_sum_trotter_is_exact():
    rng = np.random.default_rng(17)
    h = PauliSum([("ZZI", 0.7), ("IZZ", -0.4), ("ZIZ", 1.1)])
    amps = random_state(rng, 3)
    got = apply_sum_trotter(_sv(amps), h, 0.9)
    want = dense_evolve(amps, dense_sum(list(h.items())), 0.9)
    assert np.allclose(got.amps, want, atol=1e-10)


def test_expectation_matches_dense():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        terms = random_pauli_terms(rng, n, int(rng.integers(1, 6)))
        amps = random_state(rng, n)
        got = expectation(_sv(amps), PauliSum(terms))
        want = np.real(amps.conj() @ dense_sum(terms) @ amps)
        assert got == pytest.approx(want, abs=1e-11)


def test_expectation_rejects_nonhermitian_residue():
    state = _sv(random_state(np.random.default_rng(0), 2))
    with pytest.raises(ValueError):
        expectation(state, PauliSum([("XY", 1.0j)]))
    with pytest.raises(ValueError):
        expectation(StateVector.plus(1), PauliSum([("X", 1.0j)]))


def test_expectation_accepts_every_hermitian_sum():
    """Imaginary parts up to HERMITIAN_TOL per coefficient never trip the residue bound.

    On |+>^8 every I/X string has expectation 1, so 200 such terms at
    1 + HERMITIAN_TOL*1j leave a residue of 2e-10 with no rounding in it.
    """
    strings = ["".join(bits) for bits in itertools.product("IX", repeat=8)][:200]
    h = PauliSum([(ops, complex(1.0, HERMITIAN_TOL)) for ops in strings])
    assert h.is_hermitian
    assert expectation(StateVector.plus(8), h) == pytest.approx(200.0, rel=1e-12)


def test_matrix_element_matches_dense():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        ops = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        a, b = random_state(rng, n), random_state(rng, n)
        got = pauli_matrix_element(_sv(a), ops, _sv(b))
        want = a.conj() @ dense_string(ops) @ b
        assert got == pytest.approx(want, abs=1e-11)


def test_pauli_expectation_is_real_part_of_element():
    rng = np.random.default_rng(37)
    amps = random_state(rng, 3)
    state = _sv(amps)
    got = pauli_expectation(state, "XYZ")
    want = np.real(amps.conj() @ dense_string("XYZ") @ amps)
    assert got == pytest.approx(want, abs=1e-12)


def test_inner_and_fidelity():
    rng = np.random.default_rng(41)
    a, b = random_state(rng, 4), random_state(rng, 4)
    ov = inner(_sv(a), _sv(b))
    assert ov == pytest.approx(np.vdot(a, b), abs=1e-12)
    assert fidelity(_sv(a), _sv(b)) == pytest.approx(abs(np.vdot(a, b)) ** 2, abs=1e-12)
    assert fidelity(_sv(a), _sv(a)) == pytest.approx(1.0)


def test_basis_and_plus_constructors():
    b = StateVector.basis(3, "101")
    assert b.amps[0b101] == pytest.approx(1.0)
    assert np.allclose(StateVector.basis(3, 5).amps, b.amps)
    p = StateVector.plus(2)
    assert np.allclose(p.amps, 0.5)


def test_norm_guard():
    for amps in ([1.0, 1.0], [np.nan, 0.0]):
        with pytest.raises(ValueError):
            StateVector(np.array(amps, dtype=complex))


def test_from_amplitudes_normalizes():
    s = StateVector.from_amplitudes(np.array([3.0, 4.0j], dtype=complex))
    assert np.linalg.norm(s.amps) == pytest.approx(1.0)


def test_diagonal_values_and_dense_matrix():
    rng = np.random.default_rng(47)
    h = PauliSum([("ZI", 1.0), ("IZ", 2.0), ("ZZ", 0.5)])
    assert np.allclose(diagonal_values(h), [3.5, -1.5, 0.5, -2.5])
    terms = random_pauli_terms(rng, 3, 5)
    assert np.allclose(dense_matrix(PauliSum(terms)), dense_sum(terms), atol=1e-12)


def test_reference_spectrum_matches_dense_eigh():
    rng = np.random.default_rng(53)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        terms = random_pauli_terms(rng, n, 4)
        h = PauliSum(terms)
        pairs = reference_spectrum(h, count=2)
        vals = np.linalg.eigvalsh(dense_sum(terms))
        assert pairs[0][0] == pytest.approx(vals[0], abs=1e-10)
        assert pairs[1][0] == pytest.approx(vals[1], abs=1e-10)
        for energy, vec in pairs:
            hv = dense_sum(terms) @ vec.amps
            assert np.allclose(hv, energy * vec.amps, atol=1e-8)


def test_reference_spectrum_diagonal_fast_path():
    """Diagonal sums resolve to basis-state eigenvectors without eigh."""
    h = PauliSum([("ZI", 1.0), ("IZ", 2.0), ("ZZ", 0.5)])
    pairs = reference_spectrum(h)
    assert [round(e, 10) for e, _ in pairs] == [-2.5, -1.5, 0.5, 3.5]
    assert np.allclose(pairs[0][1].amps, StateVector.basis(2, "11").amps)


MFI9 = build_mfi(random_mfi(9, 0))


@pytest.fixture(scope="module")
def mfi9_dense():
    return np.linalg.eigh(dense_sum(list(MFI9.items())))


def _projector(vecs):
    return vecs @ vecs.conj().T


def test_lanczos_returns_every_copy_of_a_degenerate_level(mfi9_dense):
    """E2 = E3 on the nine-qubit ring: count=4 holds both copies, count=3 one of them."""
    want_vals, want_vecs = mfi9_dense
    assert want_vals[3] - want_vals[2] <= 1e-10 < want_vals[4] - want_vals[3]
    pairs = reference_spectrum(MFI9, count=4)
    vals = np.array([e for e, _ in pairs])
    vecs = np.column_stack([v.amps for _, v in pairs])
    np.testing.assert_allclose(vals, want_vals[:4], rtol=0, atol=1e-10)
    np.testing.assert_allclose(
        _projector(vecs[:, 2:4]), _projector(want_vecs[:, 2:4]), rtol=0, atol=1e-10
    )
    np.testing.assert_allclose(
        _projector(vecs[:, :2]), _projector(want_vecs[:, :2]), rtol=0, atol=1e-10
    )

    third = reference_spectrum(MFI9, count=3)[2][1].amps
    level = want_vecs[:, 2:4]
    assert np.linalg.norm(third - level @ (level.conj().T @ third)) <= 1e-10


def test_lanczos_spectrum_repeats_bit_for_bit():
    first = reference_spectrum(MFI9, count=2)
    again = reference_spectrum(MFI9, count=2)
    assert [e for e, _ in first] == [e for e, _ in again]
    for (_, a), (_, b) in zip(first, again):
        assert np.array_equal(a.amps, b.amps)


def test_lanczos_projected_solves_are_few_and_small(monkeypatch):
    """Two levels of the nine-qubit ring: at most 10 eigensolves of the
    projected matrix, none larger than the bounded basis, and at most 160
    matrix-vector products (Krylov steps plus the residual checks)."""
    solves, matvecs = [], []
    original_eigh, original_matvec = np.linalg.eigh, states.CompiledSum.matvec

    def counting_eigh(a):
        solves.append(len(a))
        return original_eigh(a)

    def counting_matvec(self, v):
        matvecs.append(v.shape)
        return original_matvec(self, v)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(states.CompiledSum, "matvec", counting_matvec)
    reference_spectrum(MFI9, count=2)
    assert 0 < len(solves) <= 10
    assert max(solves) <= states._LANCZOS_BASIS
    assert len(matvecs) <= 160


def test_lanczos_stops_at_the_first_copy_of_the_last_level(monkeypatch):
    """X on one of nine qubits has a 256-fold level at -1: count=1 takes
    one run and one confirming run, not one run per copy."""
    runs = []
    original = states._krylov_lowest

    def counting(*args):
        runs.append(args[2].shape[0])
        return original(*args)

    monkeypatch.setattr(states, "_krylov_lowest", counting)
    ((value, vec),) = reference_spectrum(PauliSum([("X" + "I" * 8, 1.0)]), count=1)
    assert value == pytest.approx(-1.0, abs=1e-12)
    np.testing.assert_allclose(apply_pauli(vec, "X" + "I" * 8), -vec.amps, rtol=0, atol=1e-12)
    assert len(runs) <= 2


def test_lanczos_memory_is_bounded_by_the_basis():
    """Twelve qubits, count=2: the Krylov basis is a few dozen rows, so the
    traced peak stays below 4 MiB (one 4096-level row is 32 KiB)."""
    h = build_mfi(random_mfi(12, 0))
    reference_spectrum(h, count=2)  # fills the kernel cache
    tracemalloc.start()
    try:
        reference_spectrum(h, count=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_spectrum_route_follows_the_size_rule(monkeypatch):
    """Below the crossover (and for count=None) the dense route runs; above it, Lanczos."""
    dense_calls = []
    original = states.dense_eigh

    def counting(h):
        dense_calls.append(h.n)
        return original(h)

    monkeypatch.setattr(states, "dense_eigh", counting)
    reference_spectrum(build_mfi(random_mfi(7, 0)), count=1)
    reference_spectrum(build_mfi(random_mfi(6, 0)))
    reference_spectrum(MFI9, count=17)
    assert dense_calls == [7, 6, 9]
    reference_spectrum(build_mfi(random_mfi(8, 0)), count=2)
    reference_spectrum(MFI9, count=16)
    assert dense_calls == [7, 6, 9]
