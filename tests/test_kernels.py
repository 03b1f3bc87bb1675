"""Cached Pauli-string kernels against the dense Kronecker oracles.

Every check runs twice on the same inputs, so the second call is served
from the kernel cache, and scribbles over the first result in between:
a returned array must never alias the input state or a cached buffer.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feedbackq import (
    PauliSum,
    StateVector,
    build_ising,
    build_mfi,
    dense_matrix,
    diagonal_values,
    expectation,
    pauli_matrix_element,
    random_ising,
    random_mfi,
    reference_spectrum,
    standard_controls,
)
from feedbackq import states
from feedbackq.states import (
    CompiledSum,
    TrotterPlan,
    apply_pauli,
    apply_pauli_exp,
    dense_eigh,
    matrix_element_blocks,
)

from _oracles import (
    dense_string,
    dense_sum,
    random_pauli_terms,
    random_state,
    reference_pauli_action,
    reference_pauli_exp,
)

ATOL = 1e-12
PROPERTY = settings(max_examples=60, deadline=None, database=None)

qubits = st.integers(1, 8)
seeds = st.integers(0, 2**32 - 1)


def strings(n, letters="IXYZ"):
    return st.text(letters, min_size=n, max_size=n)


def string_lists(letters="IXYZ"):
    return qubits.flatmap(lambda n: st.lists(strings(n, letters), min_size=1, max_size=6))


def _state(rng, n):
    return StateVector.from_amplitudes(random_state(rng, n))


def _sum(rng, ops_list):
    terms = [(ops, float(rng.uniform(-2.0, 2.0))) for ops in ops_list]
    return PauliSum(terms), terms


@PROPERTY
@given(ops=qubits.flatmap(strings), seed=seeds)
def test_apply_pauli_matches_dense(ops, seed):
    state = _state(np.random.default_rng(seed), len(ops))
    before = state.amps.copy()
    want = dense_string(ops) @ before
    first = apply_pauli(state, ops)
    np.testing.assert_allclose(first, want, rtol=0, atol=ATOL)
    assert not np.shares_memory(first, state.amps)
    first[:] = 7.0
    again = apply_pauli(state, ops)
    np.testing.assert_allclose(again, want, rtol=0, atol=ATOL)
    assert np.array_equal(state.amps, before)


@PROPERTY
@given(ops=qubits.flatmap(strings), seed=seeds)
def test_matrix_element_matches_dense(ops, seed):
    rng = np.random.default_rng(seed)
    a, b = _state(rng, len(ops)), _state(rng, len(ops))
    want = complex(np.vdot(a.amps, dense_string(ops) @ b.amps))
    for _ in range(2):
        assert pauli_matrix_element(a, ops, b) == pytest.approx(want, abs=ATOL)


@PROPERTY
@given(ops_list=string_lists(), seed=seeds)
def test_expectation_matches_dense(ops_list, seed):
    rng = np.random.default_rng(seed)
    h, terms = _sum(rng, ops_list)
    state = _state(rng, h.n)
    want = float(np.vdot(state.amps, dense_sum(terms) @ state.amps).real)
    for _ in range(2):
        assert expectation(state, h) == pytest.approx(want, abs=1e-11)


@PROPERTY
@given(ops_list=string_lists("IZ"), seed=seeds)
def test_diagonal_values_match_dense(ops_list, seed):
    h, terms = _sum(np.random.default_rng(seed), ops_list)
    want = np.diag(dense_sum(terms)).real
    first = diagonal_values(h)
    np.testing.assert_allclose(first, want, rtol=0, atol=ATOL)
    first[:] = 7.0
    np.testing.assert_allclose(diagonal_values(h), want, rtol=0, atol=ATOL)


@PROPERTY
@given(ops_list=string_lists(), seed=seeds)
def test_dense_matrix_matches_dense(ops_list, seed):
    h, terms = _sum(np.random.default_rng(seed), ops_list)
    want = dense_sum(terms)
    first = dense_matrix(h)
    np.testing.assert_allclose(first, want, rtol=0, atol=ATOL)
    first[:] = 7.0
    np.testing.assert_allclose(dense_matrix(h), want, rtol=0, atol=ATOL)


def _even_y(ops):
    """The string with its first Y turned into X when its Y count is odd."""
    return ops.replace("Y", "X", 1) if ops.count("Y") % 2 else ops


def eigh_sums():
    """Hermitian string lists at n = 1..7: unrestricted, or an even Y count per string."""
    lists = st.integers(1, 7).flatmap(lambda n: st.lists(strings(n), min_size=1, max_size=6))
    return st.one_of(lists, lists.map(lambda ops_list: [_even_y(o) for o in ops_list]))


@PROPERTY
@given(ops_list=eigh_sums(), seed=seeds)
def test_dense_eigh_matches_dense(ops_list, seed):
    h, terms = _sum(np.random.default_rng(seed), ops_list)
    real = all(ops.count("Y") % 2 == 0 for ops in ops_list)
    want_dtype = np.float64 if real else np.complex128
    assert dense_matrix(h).dtype == want_dtype
    oracle = dense_sum(terms)
    evals, evecs = dense_eigh(h)
    assert evecs.dtype == want_dtype
    np.testing.assert_allclose(evals, np.linalg.eigvalsh(oracle), rtol=0, atol=1e-10)
    residual = np.linalg.norm(oracle @ evecs - evecs * evals, axis=0)
    assert residual.max() <= 1e-10
    gram = evecs.conj().T @ evecs
    np.testing.assert_allclose(gram, np.eye(len(evals)), rtol=0, atol=1e-10)


def test_dense_eigh_degenerate_eigenspace_matches_complex_route():
    """E2 = E3 on the nine-qubit ring: the basis may differ, the projector may not."""
    h = build_mfi(random_mfi(9, 0))
    evals, evecs = dense_eigh(h)
    assert evecs.dtype == np.float64
    assert evals[3] - evals[2] <= 1e-10 < min(evals[2] - evals[1], evals[4] - evals[3])
    want_vals, want_vecs = np.linalg.eigh(dense_sum(list(h.items())))
    np.testing.assert_allclose(evals, want_vals, rtol=0, atol=1e-10)

    def projector(vecs):
        return vecs[:, 2:4] @ vecs[:, 2:4].conj().T

    np.testing.assert_allclose(projector(evecs), projector(want_vecs), rtol=0, atol=1e-10)


def _string_values(h):
    """Each string's (flip mask, coefficient times phase), in the sum's canonical order."""
    real = all(c.imag == 0 and ops.count("Y") % 2 == 0 for ops, c in h.items())
    out = []
    for ops, coeff in h.items():
        xmask, zmask, ny = states._string_masks(ops)
        coeff = coeff.real if real else coeff * 1j if ny % 2 else coeff
        vals = np.full(1 << h.n, coeff, dtype=np.float64 if real else np.complex128)
        if zmask:
            phase = states._kernel(ops).phase
            vals *= phase.imag if ny % 2 else phase.real
        out.append((xmask, vals))
    return out


def _per_string_matrix(h):
    """Dense matrix scattered one string at a time, in the sum's canonical order."""
    values = _string_values(h)
    dim = 1 << h.n
    mat = np.zeros((dim, dim), dtype=values[0][1].dtype)
    rows = np.arange(dim)
    for xmask, vals in values:
        mat[rows, rows ^ xmask] += vals
    return mat


def _per_string_rows(h):
    """Coefficient rows added one string at a time, keyed by flip mask in first-appearance order."""
    rows = {}
    for xmask, vals in _string_values(h):
        rows[xmask] = rows.get(xmask, 0.0) + vals
    return rows


@pytest.mark.parametrize("n", [3, 6, 9])
def test_compiled_sum_adds_terms_in_string_order(n):
    """One scatter per flip mask gives bit for bit the per-string matrix, rows and diagonal.

    The last sum has odd-Y strings only, so its rows are purely imaginary
    and `CompiledSum` keeps their imaginary parts with scale 1j.
    """
    rng = np.random.default_rng(n)
    sums = [
        build_mfi(random_mfi(n, 1)),
        PauliSum(random_pauli_terms(rng, n, 4 * n)),
        PauliSum([(_even_y(ops), c) for ops, c in random_pauli_terms(rng, n, 4 * n)]),
        PauliSum([(_odd_y(ops), c) for ops, c in random_pauli_terms(rng, n, 2 * n)]),
    ]
    for h in sums:
        assert np.array_equal(dense_matrix(h), _per_string_matrix(h))
        compiled = CompiledSum(h)
        want = _per_string_rows(h)
        assert compiled.masks == list(want)
        want = np.array(list(want.values()))
        if compiled.scale == 1j:
            assert not want.real.any()
            want = want.imag
        assert compiled.rows.dtype == want.dtype and compiled.rows.tobytes() == want.tobytes()
    assert CompiledSum(sums[-1]).scale == 1j
    diagonal = build_ising(random_ising(n, 2))
    want = np.diag(_per_string_matrix(diagonal))
    assert np.array_equal(diagonal_values(diagonal), want)
    assert np.array_equal(np.diag(dense_matrix(diagonal)), want)


LANCZOS_PROPERTY = settings(max_examples=6, deadline=None, database=None)


@LANCZOS_PROPERTY
@given(n=st.integers(9, 10), terms=st.integers(10, 30), count=st.integers(1, 4),
       real=st.booleans(), seed=seeds)
@example(n=10, terms=16, count=3, real=True, seed=231)
@example(n=10, terms=16, count=4, real=False, seed=2)
def test_lanczos_spectrum_matches_dense(n, terms, count, real, seed):
    """Random Pauli sums on the matrix-free route: levels, residuals, eigenspaces.

    The first example has a 4-fold level 4.3e-5 below another 4-fold
    cluster: a restart run that stops before its residuals reach the
    tolerance returns the upper cluster in place of the third copy.  The
    second is complex, and its runs with 4 to 7 locked rows each restart
    the Krylov basis at least once.
    """
    pairs = random_pauli_terms(np.random.default_rng(seed), n, terms)
    if real:
        pairs = [(_even_y(ops), c) for ops, c in pairs]
    h = PauliSum(pairs)
    oracle = dense_sum(pairs)
    want_vals, want_vecs = np.linalg.eigh(oracle)
    got = reference_spectrum(h, count=count)
    vals = np.array([e for e, _ in got])
    vecs = np.column_stack([v.amps for _, v in got])
    np.testing.assert_allclose(vals, want_vals[:count], rtol=0, atol=1e-10)
    residual = np.linalg.norm(oracle @ vecs - vecs * vals, axis=0)
    assert residual.max() <= 1e-10
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(count), rtol=0, atol=1e-10)
    for i in range(count):
        gap = min(want_vals[i] - want_vals[i - 1] if i else np.inf, want_vals[i + 1] - want_vals[i])
        if gap > 0.1:
            got_proj = np.outer(vecs[:, i], vecs[:, i].conj())
            want_proj = np.outer(want_vecs[:, i], want_vecs[:, i].conj())
            np.testing.assert_allclose(got_proj, want_proj, rtol=0, atol=1e-10)


def _odd_y(ops):
    """The string with one letter changed when its Y count is even."""
    if ops.count("Y") % 2:
        return ops
    i = next((i for i, letter in enumerate(ops) if letter != "Y"), 0)
    return ops[:i] + ("X" if ops[i] == "Y" else "Y") + ops[i + 1 :]


def kernel_strings(n):
    """All I, all X, I/Z only, an even or an odd Y count."""
    return st.one_of(
        st.just("I" * n),
        st.just("X" * n),
        strings(n, "IZ"),
        strings(n).map(_even_y),
        strings(n).map(_odd_y),
    )


def _kernel_state(rng, n, kind):
    """A complex state, or one with exactly zero parts: real amplitudes or a basis state."""
    if kind == "complex":
        return _state(rng, n)
    if kind == "real":
        return StateVector.from_amplitudes(rng.normal(size=1 << n))
    return StateVector.basis(n, int(rng.integers(1 << n)))


def _assert_reference_bits(got, want, amps):
    """Equal values, and equal bits unless the input has an exactly zero part.

    From a zero part, the one-pass kernel may return a zero of the other
    sign than the two-pass reference.
    """
    assert got.dtype == want.dtype and np.array_equal(got, want)
    if np.all(amps.view(np.float64)):
        assert got.tobytes() == want.tobytes()


state_kinds = st.sampled_from(["complex", "real", "basis"])


@PROPERTY
@given(ops=qubits.flatmap(kernel_strings), angle=st.floats(-7.0, 7.0), kind=state_kinds,
       seed=seeds)
def test_kernels_match_reference_bits(ops, angle, kind, seed):
    """The one-pass kernels give the bits of gather, sign multiply, then 1j."""
    state = _kernel_state(np.random.default_rng(seed), len(ops), kind)
    for _ in range(2):
        want = reference_pauli_action(state.amps, ops)
        _assert_reference_bits(apply_pauli(state, ops), want, state.amps)
        want = reference_pauli_exp(state.amps, ops, angle)
        _assert_reference_bits(apply_pauli_exp(state, ops, angle).amps, want, state.amps)


@PROPERTY
@given(
    ops_list=qubits.flatmap(lambda n: st.lists(kernel_strings(n), min_size=1, max_size=6)),
    coeffs=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
    dt=st.floats(0.001, 0.5),
    scale=st.floats(-3.0, 3.0),
    slices=st.integers(1, 3),
    kind=state_kinds,
    seed=seeds,
)
def test_trotter_plan_matches_reference_bits(ops_list, coeffs, dt, scale, slices, kind, seed):
    """Applied twice at one step (the second time folded) and once at another, with and
    without room to fold, a plan gives the reference bits every time."""
    state = _kernel_state(np.random.default_rng(seed), len(ops_list[0]), kind)
    factors = tuple(zip(ops_list, coeffs))
    runs = []
    for budget in (states.KERNEL_CACHE_BYTES, 0):
        with mock.patch.object(states, "KERNEL_CACHE_BYTES", budget):
            plan = TrotterPlan(factors, dt)
            runs.append([plan.apply(state, scale=s, slices=slices).amps
                         for s in (scale, scale, 0.5 - scale)])
    for s, got, unfolded in zip((scale, scale, 0.5 - scale), *runs):
        want = state.amps
        step = dt * s / slices
        for _ in range(slices):
            for ops, coeff in factors:
                want = reference_pauli_exp(want, ops, coeff * step)
        _assert_reference_bits(got, want, state.amps)
        _assert_reference_bits(unfolded, want, state.amps)


def test_repeated_plan_folds_within_budget(monkeypatch):
    """Each application makes one `_pauli_action` per factor.  A second application at
    the same step (or a first with slices > 1) runs `_exp_amps` only for X-only strings,
    unless the plan's folded vectors do not all fit in `KERNEL_CACHE_BYTES`."""
    factors = (("ZZI", 0.3), ("XYZ", -0.7), ("XIX", 0.2), ("IZZ", 1.1))
    state = StateVector.plus(3)
    action, exp_amps = states._pauli_action, states._exp_amps
    calls = []

    def counted_action(*args):
        calls.append(None)
        return action(*args)

    def counted_exp(amps, ops, angle):
        calls.append(ops)
        return exp_amps(amps, ops, angle)

    monkeypatch.setattr(states, "_pauli_action", counted_action)
    monkeypatch.setattr(states, "_exp_amps", counted_exp)

    def generic(plan, scale=1.0, slices=1):
        """The strings that took `_exp_amps`, after checking the action count."""
        calls.clear()
        plan.apply(state, scale=scale, slices=slices)
        assert calls.count(None) == len(factors) * slices
        return [ops for ops in calls if ops is not None]

    every = [ops for ops, _ in factors]
    plan = TrotterPlan(factors, 0.1)
    assert generic(plan) == every
    assert generic(plan) == generic(plan) == ["XIX"]
    assert generic(plan, scale=2.0) == every
    assert generic(plan, scale=2.0, slices=2) == ["XIX"] * 2  # a new step, folded at once
    assert generic(plan, scale=-1.0) == every

    folded_bytes = 3 * (16 << 3)  # three strings with a phase, 8 amplitudes each
    monkeypatch.setattr(states, "KERNEL_CACHE_BYTES", folded_bytes)
    plan = TrotterPlan(factors, 0.1)
    assert generic(plan, slices=2) == ["XIX"] * 2
    _, folded = plan._fold
    assert sum(vec.nbytes for *_, vec in folded if vec is not None) == folded_bytes
    monkeypatch.setattr(states, "KERNEL_CACHE_BYTES", folded_bytes - 1)  # all or nothing
    plan = TrotterPlan(factors, 0.1)
    assert generic(plan, slices=2) == generic(plan, slices=2) == every * 2


@PROPERTY
@given(
    ops_list=st.integers(1, 6).flatmap(
        lambda n: st.lists(kernel_strings(n), min_size=1, max_size=6)
    ),
    real_basis=st.booleans(),
    seed=seeds,
)
@example(ops_list=["YIII", "IYII", "IIYI", "IIIY"], real_basis=True, seed=0)  # sum-Y
@example(ops_list=["YZI", "XXY", "IYI"], real_basis=False, seed=1)
def test_matrix_element_blocks_match_dense_product(ops_list, real_basis, seed):
    """Block by block, basis^H H basis is the dense product, for real and complex sums and bases.

    A sum of odd-Y strings is purely imaginary and meets a real basis in
    one real product per block.
    """
    rng = np.random.default_rng(seed)
    h, terms = _sum(rng, ops_list)
    dim = 1 << h.n
    basis = rng.normal(size=(dim, dim))
    if not real_basis:
        basis = basis + 1j * rng.normal(size=(dim, dim))
    basis = np.linalg.qr(basis)[0]
    want = basis.conj().T @ dense_sum(terms) @ basis
    starts, blocks = zip(*matrix_element_blocks(h, basis))
    assert starts == tuple(np.cumsum([0] + [b.shape[1] for b in blocks[:-1]]))
    got = np.hstack(blocks)
    assert np.iscomplexobj(got) == (not real_basis or not CompiledSum(h).real)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


sum_kinds = st.sampled_from(["real", "complex", "imaginary"])


@PROPERTY
@given(
    ops_list=st.integers(1, 6).flatmap(lambda n: st.lists(strings(n), min_size=1, max_size=6)),
    kind=sum_kinds,
    width=st.integers(1, 5),
    real_v=st.booleans(),
    seed=seeds,
)
def test_compiled_sum_matvec_matches_dense(ops_list, kind, width, real_v, seed):
    """scale * matvec(v) is H v on a vector and on a column block, real or complex.

    Real sums have real coefficients and even-Y strings; complex ones
    complex coefficients; purely imaginary ones a factor 1j on every
    even-Y string, so every term is imaginary and `scale` is 1j.
    """
    rng = np.random.default_rng(seed)
    terms = []
    for ops in ops_list:
        coeff = float(rng.uniform(-2.0, 2.0))
        if kind == "real":
            ops = _even_y(ops)
        elif kind == "complex":
            coeff = complex(coeff, float(rng.uniform(-2.0, 2.0)))
        elif ops.count("Y") % 2 == 0:
            coeff *= 1j
        terms.append((ops, coeff))
    compiled = CompiledSum(PauliSum(terms))
    assert compiled.real == (kind == "real")
    assert compiled.scale == (1j if kind == "imaginary" else 1)
    dim = 1 << len(ops_list[0])
    v = rng.normal(size=(dim, width))
    if not real_v:
        v = v + 1j * rng.normal(size=(dim, width))
    oracle = dense_sum(terms)
    for x in (np.ascontiguousarray(v[:, 0]), v):
        got = compiled.scale * compiled.matvec(x)
        np.testing.assert_allclose(got, oracle @ x, rtol=0, atol=ATOL)


def test_compiled_sum_keeps_sum_y_real_and_defers_gathers():
    """Sum-Y compiles to float64 rows with scale 1j, so a real block stays real.

    An I/Z-only sum forms no flip gather for its rows or its dense
    matrix; the first matvec builds them.
    """
    sum_y = CompiledSum(standard_controls("global_xyz", 6)[1])
    assert not sum_y.real and sum_y.scale == 1j and sum_y.rows.dtype == np.float64
    assert sum_y.matvec(np.ones((64, 3))).dtype == np.float64
    diagonal = CompiledSum(build_ising(random_ising(6, 0)))
    assert diagonal.masks == [0] and diagonal.rows.dtype == np.float64
    assert np.array_equal(np.diag(diagonal.dense()), diagonal.rows[0])
    assert diagonal._gathers is None
    assert np.array_equal(diagonal.matvec(np.ones(64)), diagonal.rows[0])
    assert diagonal._gathers is not None


def test_diagonal_values_keep_the_real_part():
    """Imaginary coefficients within the hermitian tolerance leave a float64 diagonal."""
    got = diagonal_values(PauliSum([("ZI", 1.0 + 1e-13j), ("IZ", 1e-13j)]))
    assert got.dtype == np.float64 and np.array_equal(got, [1.0, 1.0, -1.0, -1.0])
    got = diagonal_values(PauliSum([("ZI", 1e-13j)]))  # compiles to scale 1j
    assert got.dtype == np.float64 and not got.any()


def test_cached_kernels_are_read_only():
    folded = states._kernel("XYZ").phase
    for ops in ("ZYY", "ZYZ", "XYZ"):
        assert states._kernel(ops).phase.dtype == np.complex128
    # Real signs for an even Y count, imaginary ones for an odd count.
    assert not np.any(states._kernel("ZYY").phase.imag)
    assert not np.any(folded.real) and not np.any(states._kernel("ZYZ").phase.real)
    for arr in (states._kernel("ZYY").phase, states._kernel("ZYZ").phase,
                states._kernel("XYZ").gather, folded):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_one_kernel_record_per_string(monkeypatch):
    """The cache keeps only per-string records; one flip mask, one gather array."""
    cache = states._KernelCache(states.KERNEL_CACHE_BYTES)
    monkeypatch.setattr(states, "_KERNELS", cache)
    xyz = states._kernel("XYZ")
    assert xyz.gather is states._kernel("XXI").gather
    assert states._kernel("YZY").gather is states._kernel("XIX").gather
    assert np.array_equal(xyz.gather, np.arange(8) ^ 0b110)
    state = _state(np.random.default_rng(9), 9)
    h = build_mfi(random_mfi(9, 0))
    apply_pauli(state, "XYZIZYXIZ")
    dense_matrix(h)
    reference_spectrum(h, count=2)
    assert 1 << h.n >= states._LANCZOS_MIN_DIM  # the matrix-free route ran
    assert cache._arrays
    for ops, kernel in cache._arrays.items():
        assert isinstance(ops, str) and isinstance(kernel, states._Kernel)
        if states._string_masks(ops)[0]:
            assert kernel.gather is cache._arrays[ops.replace("Y", "X").replace("Z", "I")].gather
    assert cache._bytes == sum(kernel.nbytes for kernel in cache._arrays.values())


def test_zero_budget_keeps_no_array(monkeypatch):
    """With no byte budget, the diagonal of a sum leaves nothing allocated behind."""
    monkeypatch.setattr(states, "_KERNELS", states._KernelCache(max_bytes=0))
    h = PauliSum([("Z" * 16, 1.0), ("ZI" * 8, 0.5), ("IZ" * 8, -0.25)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        diag = diagonal_values(h)
        kept = tracemalloc.get_traced_memory()[0] - before - diag.nbytes
    finally:
        tracemalloc.stop()
    # Every array the diagonal builds (the int64 index, the complex128 phases)
    # holds 8 or more bytes per amplitude, so none of them is left behind.
    assert kept < 1 << 16


def test_budget_smaller_than_a_kernel_still_computes(monkeypatch):
    """A kernel that does not fit the byte budget is rebuilt, never kept."""
    tiny = states._KernelCache(max_bytes=64)
    monkeypatch.setattr(states, "_KERNELS", tiny)
    rng = np.random.default_rng(8)
    state = _state(rng, 8)
    for ops in ("XYZIZYXI", "ZZIIZZII", "XYZIZYXI"):
        want = dense_string(ops) @ state.amps
        np.testing.assert_allclose(apply_pauli(state, ops), want, rtol=0, atol=ATOL)
    assert tiny._bytes == 0 and not tiny._arrays


def test_kernel_cache_evicts_oldest_first():
    cache = states._KernelCache(max_bytes=24)

    def build(key):
        return states._Kernel(None, np.full(8, ord(key), dtype=np.int8))

    def never(key):
        raise AssertionError(f"{key!r} rebuilt")

    for key in ("a", "b", "c"):
        cache.get(key, build)
    assert cache.get("a", never).phase[0] == ord("a")  # a hit, never rebuilt
    cache.get("d", build)
    assert list(cache._arrays) == ["b", "c", "d"]
    assert cache._bytes == 24
