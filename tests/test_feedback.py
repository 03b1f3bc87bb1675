"""Feedback loop: descent, fixed points, backends, deflation, tuning."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedbackq import (
    EXACT,
    FeedbackConfig,
    FeedbackRunError,
    IsingSpec,
    PauliSum,
    Shift,
    ShiftedOperator,
    ShotBudget,
    StateVector,
    TrotterPlan,
    UnsupportedGeneratorError,
    alpha_from_bound,
    alpha_iterative,
    build_ising,
    controller_diagonal_fastpath,
    controller_grad_fd,
    controller_grad_psr,
    controller_overlap_sampled,
    deflate_spectrum,
    derive_seed,
    expectation,
    fidelity,
    lyapunov_value,
    one_norm,
    random_ising,
    reference_spectrum,
    run_falqon,
    run_fqae,
    standard_controls,
    tune_time_step,
)
from feedbackq.feedback import AlphaSearchError, _assemble, _controller_from_pieces, _two_level_split
from feedbackq.pauli import HERMITIAN_TOL, commutator_i, product
from feedbackq.sampling import TermTable, sample_hadamard_test, sample_pauli_expectation, sample_sum

from _oracles import dense_controller, random_pauli_terms, random_state


BENCH = build_ising(IsingSpec(2, ((0.0, 0.5), (0.5, 0.0)), (1.0, 2.0)))
BENCH_REF = reference_spectrum(BENCH)
Y_CTRLS = standard_controls("y_per_qubit", 2)


def bench_p(alpha=7.0):
    return ShiftedOperator(BENCH, [Shift(alpha, BENCH_REF[0][1], BENCH_REF[0][0])])


def bench_config(**overrides):
    base = dict(dt=0.08, gains=(1.5, 1.5), depth=100)
    base.update(overrides)
    return FeedbackConfig(**base)


def test_benchmark_descends_to_first_excited():
    """Two-qubit run: V falls monotonically toward -1.5, fidelity > 0.95."""
    trace = run_fqae(
        BENCH, Y_CTRLS, bench_p(), StateVector.plus(2), bench_config(),
        track_states=[BENCH_REF[1][1]],
    )
    assert trace.max_lyapunov_increase() <= 1e-9
    assert trace.initial_lyapunov == pytest.approx(1.75)
    assert trace.lyapunov[-1] < -1.40
    assert trace.fidelities[-1, 0] > 0.95
    assert abs(trace.energy[-1] - (-1.5)) < 0.1
    # the first layer applies the zero-control default
    assert np.all(trace.controls[0] == 0.0)
    # diagnostics are consistent with a direct evaluation on the final state
    assert trace.lyapunov[-1] == pytest.approx(
        lyapunov_value(trace.final_state, bench_p())
    )
    assert trace.energy[-1] == pytest.approx(expectation(trace.final_state, BENCH))


def test_eigenstate_is_a_fixed_point():
    """Starting in an eigenstate of P keeps every control at zero."""
    ground = BENCH_REF[0][1]
    trace = run_falqon(BENCH, Y_CTRLS, ground, bench_config(depth=40))
    assert np.all(trace.controls == 0.0)
    assert np.allclose(trace.lyapunov, BENCH_REF[0][0], atol=1e-12)
    assert fidelity(ground, trace.final_state) == pytest.approx(1.0)


def test_falqon_is_the_shiftless_special_case():
    rng = np.random.default_rng(4242)
    for _ in range(4):
        coeffs = rng.uniform(-1, 1, size=3)
        h0 = PauliSum([("ZI", coeffs[0]), ("IZ", coeffs[1]), ("XX", coeffs[2])])
        cfg = bench_config(depth=25)
        a = run_fqae(h0, Y_CTRLS, ShiftedOperator(h0, ()), StateVector.plus(2), cfg)
        b = run_falqon(h0, Y_CTRLS, StateVector.plus(2), bench_config(depth=25))
        assert np.array_equal(a.controls, b.controls)
        assert np.array_equal(a.lyapunov, b.lyapunov)
        assert np.array_equal(a.final_state.amps, b.final_state.amps)
        assert np.array_equal(a.lyapunov, a.energy)


def test_controller_routes_agree():
    """The overlap and both gradient estimators match the dense law.

    The overlap route with an exact budget is the exact law and lands
    within float error of the dense-matrix oracle, as does the
    parameter-shift estimate, which differentiates an exact sinusoid;
    the central difference carries an O(eps^2) bias.
    """
    rng = np.random.default_rng(913)
    for trial in range(5):
        n = int(rng.integers(2, 4))
        h0 = PauliSum(
            [("".join(rng.choice(list("IXYZ"), size=n)), float(rng.uniform(-1, 1)))
             for _ in range(4)],
            n=n,
        )
        if h0.is_diagonal or len(h0) == 0:
            continue
        ref = reference_spectrum(h0, count=1)
        p_op = ShiftedOperator(h0, [Shift(2.5, ref[0][1], ref[0][0])])
        state = StateVector.from_amplitudes(
            random_state(np.random.default_rng(600 + trial), n)
        )
        shifts = [(s.alpha, s.state.amps) for s in p_op.shifts]
        for h_ctrl in standard_controls("y_per_qubit", n):
            u_exact = dense_controller(state.amps, h_ctrl.items(), h0.items(), shifts, 1.5)
            u_overlap = controller_overlap_sampled(
                state, h_ctrl, p_op, gain=1.5, budget=EXACT
            )
            assert u_overlap == pytest.approx(u_exact, rel=1e-12, abs=1e-12)
            assert controller_overlap_sampled(state, h_ctrl, p_op, gain=1.5) == u_overlap
            u_psr = controller_grad_psr(state, h_ctrl, p_op, gain=1.5, dt=0.05)
            assert u_psr == pytest.approx(u_exact, rel=1e-9, abs=1e-10)
            u_fd = controller_grad_fd(state, h_ctrl, p_op, gain=1.5, dt=0.05)
            assert u_fd == pytest.approx(u_exact, rel=1e-6, abs=1e-7)


def _per_term_controller(state, comm, h_ctrl, p_op, gain):
    """The exact law with one Pauli expectation per commutator term."""
    comm_value = 0.0
    for ops, coeff in comm.items():
        comm_value += coeff.real * sample_pauli_expectation(state, ops, EXACT)
    pieces = []
    ident = "I" * state.n
    for shift in p_op.shifts:
        w = 0j
        for ops, coeff in h_ctrl.items():
            re = sample_hadamard_test(state, ops, shift.state, "real", EXACT)
            im = sample_hadamard_test(state, ops, shift.state, "imag", EXACT)
            w += coeff.real * complex(re, im)
        o_re = sample_hadamard_test(shift.state, ident, state, "real", EXACT)
        o_im = sample_hadamard_test(shift.state, ident, state, "imag", EXACT)
        pieces.append((shift.alpha, w, complex(o_re, o_im)))
    return _assemble(comm_value, pieces, gain)


def _route_state(rng, n, kind):
    """A random state, or |+>^n or a basis state, where string expectations reach +/-1."""
    if kind == "random":
        return StateVector.from_amplitudes(random_state(rng, n))
    if kind == "plus":
        return StateVector.plus(n)
    return StateVector.basis(n, int(rng.integers(1 << n)))


def _tilted(terms, rng, tilt):
    """The terms with imaginary parts up to HERMITIAN_TOL: none, all +TOL, or random."""
    if tilt == "none":
        return PauliSum(terms)
    imag = [HERMITIAN_TOL if tilt == "max" else rng.uniform(-1, 1) * HERMITIAN_TOL for _ in terms]
    return PauliSum([(ops, complex(c.real, t)) for (ops, c), t in zip(terms, imag)])


@settings(max_examples=80, deadline=None, database=None)
@given(
    n=st.integers(1, 7),
    drift_terms=st.integers(1, 12),
    ctrl_terms=st.integers(1, 4),
    shifts=st.integers(0, 2),
    kind=st.sampled_from(["random", "plus", "basis"]),
    tilt=st.sampled_from(["none", "max", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_commutator_route(n, drift_terms, ctrl_terms, shifts, kind, tilt, seed):
    """One `expectation` per commutator equals the per-term loop and the dense law.

    Real coefficients give the same bits.  Imaginary parts up to
    HERMITIAN_TOL on the drift, the control and the commutator itself are
    accepted and move the value by at most 1e-12.
    """
    rng = np.random.default_rng(seed)
    drift = random_pauli_terms(rng, n, drift_terms)
    ctrl = random_pauli_terms(rng, n, ctrl_terms)
    h0, h_ctrl = _tilted(drift, rng, tilt), _tilted(ctrl, rng, tilt)
    refs = [StateVector.from_amplitudes(random_state(rng, n)) for _ in range(shifts)]
    p_op = ShiftedOperator(h0, [Shift(float(rng.uniform(0.5, 5.0)), ref, 0.0) for ref in refs])
    state = _route_state(rng, n, kind)
    gain = float(rng.uniform(0.1, 3.0))
    comm = commutator_i(h_ctrl, h0)
    if tilt != "none" and len(comm):
        comm = _tilted(list(comm.items()), rng, tilt)
    assert comm.is_hermitian
    got = _controller_from_pieces(state, TermTable(comm), h_ctrl, p_op, gain, EXACT)
    loop = _per_term_controller(state, comm, h_ctrl, p_op, gain)
    if tilt == "none":
        assert np.float64(got).tobytes() == np.float64(loop).tobytes()
    else:
        assert got == pytest.approx(loop, rel=0, abs=1e-12)
    shift_amps = [(s.alpha, s.state.amps) for s in p_op.shifts]
    want = dense_controller(state.amps, ctrl, drift, shift_amps, gain)
    assert got == pytest.approx(want, rel=0, abs=1e-10)


def test_exact_controller_takes_sums_at_the_hermitian_tolerance():
    """Imaginary parts that `is_hermitian` accepts never reach the commutator.

    Each of the 128 terms Z0 P of the drift (P over I/Z) meets the control
    X0 once, giving Y0 P.  With 2 + HERMITIAN_TOL*1j on both sides, an
    unreduced product would carry 8e-12j per term, and on |+i>|0...0>,
    where every <Y0 P> is 1, a residue of 1e-9.
    """
    n = 8
    tilt = complex(2.0, HERMITIAN_TOL)
    drift = [("Z" + "".join(p), tilt) for p in itertools.product("IZ", repeat=n - 1)]
    h0, h_ctrl = PauliSum(drift), PauliSum([("X" + "I" * (n - 1), tilt)])
    comm = commutator_i(h_ctrl, h0)
    assert len(comm) == 128 and all(c.imag == 0 for _, c in comm.items())
    amps = np.zeros(1 << n, dtype=complex)
    amps[0], amps[1 << (n - 1)] = 1.0, 1.0j  # (|0> + i|1>) on qubit 0
    state = StateVector.from_amplitudes(amps)
    got = controller_overlap_sampled(state, h_ctrl, ShiftedOperator(h0, ()), gain=1.0)
    real = [(ops, c.real) for ops, c in drift]
    want = dense_controller(state.amps, [(ops, c.real) for ops, c in h_ctrl.items()], real, [], 1.0)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-10)


def test_fastpath_matches_generic_controller():
    """Closed-form diagonal-drift controller equals the generic route."""
    rng = np.random.default_rng(77)
    for trial in range(6):
        n = int(rng.integers(2, 5))
        spec_rng = np.random.default_rng(1000 + trial)
        coup = np.zeros((n, n))
        for q in range(n):
            for j in range(q + 1, n):
                coup[q, j] = coup[j, q] = spec_rng.uniform(-2, 2)
        h0 = build_ising(IsingSpec(n, tuple(map(tuple, coup)), tuple(spec_rng.uniform(-2, 2, n))))
        mixer = standard_controls("x_mixer", n)[0]
        bits = "".join(rng.choice(["0", "1"], size=n))
        alpha0 = float(rng.uniform(0.5, 5.0))
        basis = StateVector.basis(n, int(bits, 2))
        p_op = ShiftedOperator(h0, [Shift(alpha0, basis, 0.0)])
        state = StateVector.from_amplitudes(
            random_state(np.random.default_rng(300 + trial), n)
        )
        fast = controller_diagonal_fastpath(state, bits, alpha0, h0, mixer, gain=2.0)
        generic = controller_overlap_sampled(state, mixer, p_op, gain=2.0)
        assert fast == pytest.approx(generic, rel=1e-10, abs=1e-12)


def test_fastpath_input_checks():
    state = StateVector.plus(2)
    mixer = standard_controls("x_mixer", 2)[0]
    off_diag = PauliSum([("XX", 1.0)])
    with pytest.raises(ValueError):
        controller_diagonal_fastpath(state, "00", 1.0, off_diag, mixer, 1.0)
    with pytest.raises(ValueError):
        controller_diagonal_fastpath(state, "0", 1.0, BENCH, mixer, 1.0)
    with pytest.raises(ValueError):
        controller_diagonal_fastpath(state, "00", 1.0, BENCH, PauliSum([("XX", 1.0)]), 1.0)


def test_sampled_run_reproducible():
    """Same shot seed, same trace; different seed, different controls."""
    def run(seed):
        cfg = bench_config(
            depth=20,
            backend="overlap_hadamard",
            budget=ShotBudget(150, seed=derive_seed(seed, "shots")),
        )
        return run_fqae(BENCH, Y_CTRLS, bench_p(), StateVector.plus(2), cfg)

    a, b, c = run(11), run(11), run(12)
    assert np.array_equal(a.controls, b.controls)
    assert np.array_equal(a.lyapunov, b.lyapunov)
    assert not np.array_equal(a.controls, c.controls)


def test_sampled_controls_are_pinned():
    """First controls of a seeded overlap_hadamard run, hard-coded."""
    cfg = bench_config(
        depth=3,
        backend="overlap_hadamard",
        budget=ShotBudget(200, seed=derive_seed(5, "shots")),
    )
    trace = run_fqae(BENCH, Y_CTRLS, bench_p(), StateVector.plus(2), cfg)
    assert trace.controls.tolist() == [
        [0.0, 0.0],
        [-1.7930999999999986, 1.857],
        [-5.6661, 2.381999999999999],
    ]
    assert trace.final_controls == (-3.389999999999999, 2.2713)
    assert trace.lyapunov.tolist() == [1.7499999999999996, 1.3808352095321699, 0.16995661472754348]


@pytest.mark.parametrize("backend", ["overlap_hadamard", "grad_fd", "grad_psr"])
def test_sampled_runs_draw_per_term_streams(backend, monkeypatch):
    """Batched term estimates give the controls that one split per term gives.

    The reference estimates term k of a sum on `budget.split(k)` through
    `sample_pauli_expectation`, which draws with `binomial` on that split
    alone; any change of a draw on the batched route changes the controls.
    """
    from feedbackq import feedback

    h0 = build_ising(random_ising(3, 0))
    ground = reference_spectrum(h0, count=1)[0]
    p_op = ShiftedOperator(h0, [Shift(4.0, ground[1], ground[0])])
    cfg = FeedbackConfig(dt=0.05, gains=(1.0,) * 3, depth=8, backend=backend,
                         budget=ShotBudget(200, seed=derive_seed(9, "shots")))

    def run():
        return run_fqae(h0, standard_controls("y_per_qubit", 3), p_op, StateVector.plus(3), cfg)

    batched = run()
    monkeypatch.setattr(feedback, "sample_sum", _per_split_sum)
    reference = run()
    assert batched.depth == reference.depth == 8
    assert np.array_equal(batched.controls, reference.controls)
    assert np.array_equal(batched.lyapunov, reference.lyapunov)
    assert np.count_nonzero(batched.controls) > 0


SAMPLED_BACKENDS = ("overlap_hadamard", "grad_fd", "grad_psr")


@pytest.mark.parametrize("backend", SAMPLED_BACKENDS)
def test_sampled_runs_check_strings_and_keys_once(backend, monkeypatch):
    """A sampled run checks no string and no key list; each table mixes its keys once.

    The strings were checked when their sums were built and the keys are
    the terms' positions, so the table route calls neither check.  Key
    mixes are counted at depth 4 and at depth 8 from fresh tables: one
    per table and entropy length, however many layers run.
    """
    from feedbackq import sampling

    counts = {"strings": 0, "key_lists": 0, "mixes": 0}
    refuse, check_keys, key_mix = sampling._refuse_identity, sampling._check_batch_keys, sampling._key_mix

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(sampling, "_refuse_identity", counted("strings", refuse))
    monkeypatch.setattr(sampling, "_check_batch_keys", counted("key_lists", check_keys))
    monkeypatch.setattr(sampling, "_key_mix", counted("mixes", key_mix))
    h0 = build_ising(random_ising(3, 0))
    ground = reference_spectrum(h0, count=1)[0]
    seen = []
    for depth in (4, 8):
        counts.update(strings=0, key_lists=0, mixes=0)
        p_op = ShiftedOperator(h0, [Shift(4.0, ground[1], ground[0])])
        cfg = FeedbackConfig(dt=0.05, gains=(1.0,) * 3, depth=depth, backend=backend,
                             budget=ShotBudget(200, seed=derive_seed(9, "shots")))
        run_fqae(h0, standard_controls("y_per_qubit", 3), p_op, StateVector.plus(3), cfg)
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert seen[0]["strings"] == seen[0]["key_lists"] == 0
    # One table per channel's commutator on the overlap route, the drift's on the others.
    assert seen[0]["mixes"] == (3 if backend == "overlap_hadamard" else 1)


def _keyed_run(backend, depth):
    """`run_fqae`'s arguments for a sampled run on 3 qubits, two shifts and a four-string channel."""
    h0 = build_ising(random_ising(3, 1))
    ref = reference_spectrum(h0, count=2)
    shifts = [Shift(4.0, ref[0][1], ref[0][0]), Shift(2.0, ref[1][1], ref[1][0])]
    ctrls = standard_controls("y_per_qubit", 3) + [_cancelling_channel(np.random.default_rng(4), 3)]
    budget = ShotBudget(300, seed=2**70 + 9).split("run", 3)
    cfg = FeedbackConfig(dt=0.05, gains=(1.0,) * 4, depth=depth, backend=backend, budget=budget)
    return h0, ctrls, ShiftedOperator(h0, shifts), StateVector.plus(3), cfg


@pytest.mark.parametrize("backend", SAMPLED_BACKENDS)
def test_sampled_runs_key_draws_per_block(backend, monkeypatch):
    """A sampled run builds one SeedSequence per block of layers and none per draw.

    Its draws equal those of the run whose key-table lookups all miss,
    so that each draw builds its own SeedSequence: the controllers split
    on exactly the streams the run's tables hold.
    """
    from feedbackq import feedback, sampling

    monkeypatch.setattr(feedback, "_KEY_BLOCK_LAYERS", 3)
    built = [0]

    class Counted(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built[0] += 1
            super().__init__(*args, **kwargs)

    args = _keyed_run(backend, depth=7)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "SeedSequence", Counted)
        keyed = run_fqae(*args)
        assert built[0] == 3
        mp.setattr(sampling.KeyTable, "single", lambda self, path: None)
        mp.setattr(sampling.KeyTable, "batch", lambda self, path, table: None)
        missed = run_fqae(*args)
        assert built[0] > 3 + 7 * 4
    assert np.array_equal(keyed.controls, missed.controls)
    assert keyed.final_controls == missed.final_controls


def test_key_tables_do_not_grow_with_depth(monkeypatch):
    """Every block's key table has one size at any depth, and a run keeps at most two alive.

    A table is built when the previous one is still bound, and dropped
    when the next one replaces it.
    """
    import weakref

    from feedbackq import feedback, sampling

    monkeypatch.setattr(feedback, "_KEY_BLOCK_LAYERS", 4)
    sizes, alive, refs = [], [], []

    class Recorded(sampling.KeyTable):
        def __init__(self, *args):
            super().__init__(*args)
            alive.append(sum(ref() is not None for ref in refs))
            refs.append(weakref.ref(self))
            sizes.append(self.singles.nbytes + sum(
                keys.nbytes for entry in self.batches.values() for _, keys in entry))

    monkeypatch.setattr(feedback, "KeyTable", Recorded)
    for backend in ("overlap_hadamard", "grad_psr"):
        seen = []
        for depth in (8, 40):
            sizes.clear()
            alive.clear()
            run_fqae(*_keyed_run(backend, depth))
            assert len(sizes) == depth // 4 and max(alive) <= 1
            seen.append(set(sizes))
        assert seen[0] == seen[1] and len(seen[0]) == 1


def _per_split_sum(state, table, budget):
    """`sample_sum` as one split and one single estimate per term."""
    total = table.identity
    for k, ops, coeff in zip(table.keys, table.strings, table.coeffs):
        total += coeff * sample_pauli_expectation(state, ops, budget.split(k))
    return total


def _random_drift(rng, n, count):
    """A random hermitian sum with an X string and an identity term."""
    terms = dict(random_pauli_terms(rng, n, count))
    terms["X" + "I" * (n - 1)] = float(rng.uniform(-2.0, 2.0))
    terms["I" * n] = float(rng.uniform(-2.0, 2.0))
    return PauliSum(list(terms.items()))


def _two_level_controls(rng, n, channels):
    """Channels c*O + d*I with O a random non-identity string: two-level, as grad_psr needs."""
    ctrls = []
    for _ in range(channels):
        ops = "I" * n
        while ops == "I" * n:
            ops = "".join(rng.choice(list("IXYZ"), size=n))
        ctrls.append(PauliSum([(ops, float(rng.uniform(0.5, 2.0))),
                               ("I" * n, float(rng.uniform(-1.0, 1.0)))]))
    return ctrls


def _cancelling_channel(rng, n):
    """c*(XI + IX + ZZ + YY) + d*I on qubits 0 and 1, or c*(X + Y) + d*I on one qubit.

    Both are two-level with more than one string, so the parameter shift
    squares them: X and Y anticommute, and the commuting pairs' cross
    terms in the four-string square cancel (2 XX - 2 XX).
    """
    pad = "I" * (n - 2)
    strings = ["X", "Y"] if n == 1 else [s + pad for s in ("XI", "IX", "ZZ", "YY")]
    c = float(rng.uniform(0.5, 2.0))
    return PauliSum([(ops, c) for ops in strings] + [("I" * n, float(rng.uniform(-1.0, 1.0)))])


def _random_shifts(rng, n, count):
    return [Shift(float(rng.uniform(0.5, 5.0)), StateVector.from_amplitudes(random_state(rng, n)), 0.0)
            for _ in range(count)]


@settings(max_examples=60, deadline=None, database=None)
@given(
    n=st.integers(1, 4),
    drift_terms=st.integers(1, 8),
    channels=st.integers(1, 2),
    shifts=st.integers(0, 2),
    backend=st.sampled_from(SAMPLED_BACKENDS),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampled_runs_match_per_split_streams(n, drift_terms, channels, shifts, backend, seed):
    """On random non-diagonal sums, a sampled run draws what one split per term draws.

    Controls and V are bit-identical to the run whose term estimates go
    through one `split(k)` and `sample_pauli_expectation` each, with the
    drift's term table shared by both runs.
    """
    from feedbackq import feedback

    rng = np.random.default_rng(seed)
    h0 = _random_drift(rng, n, drift_terms)
    ctrls = _two_level_controls(rng, n, channels)
    p_op = ShiftedOperator(h0, _random_shifts(rng, n, shifts))
    psi0 = StateVector.from_amplitudes(random_state(rng, n))
    cfg = FeedbackConfig(dt=float(rng.uniform(0.02, 0.2)), gains=(1.0,) * channels, depth=3,
                         backend=backend, budget=ShotBudget(int(rng.integers(1, 500)), seed=seed))
    batched = run_fqae(h0, ctrls, p_op, psi0, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feedback, "sample_sum", _per_split_sum)
        reference = run_fqae(h0, ctrls, p_op, psi0, cfg)
    assert batched.depth == reference.depth == 3
    assert np.array_equal(batched.controls, reference.controls)
    assert batched.final_controls == reference.final_controls
    assert np.array_equal(batched.lyapunov, reference.lyapunov)


@settings(max_examples=100, deadline=None, database=None)
@given(
    n=st.integers(1, 4),
    drift_terms=st.integers(1, 8),
    identity=st.booleans(),
    shots=st.integers(1, 1000),
    seed=st.integers(0, 2**32 - 1),
)
def test_term_table_reads_its_sum(n, drift_terms, identity, shots, seed):
    """A table holds a sum's non-identity terms, keyed by position, and estimates <h> from them.

    At an exact budget the estimate is <h>; at a finite one it is the
    identity coefficient plus each term's single estimate on `split(k)`,
    bit for bit, on budgets of two entropy lengths in turn.
    """
    rng = np.random.default_rng(seed)
    h = _random_drift(rng, n, drift_terms)
    ident = "I" * n
    if not identity:
        h = PauliSum([(ops, c) for ops, c in h.items() if ops != ident], n=n)
    table = TermTable(h)
    rows = [(k, ops, c.real) for k, (ops, c) in enumerate(h.items()) if ops != ident]
    assert list(zip(table.keys, table.strings, table.coeffs)) == rows
    assert list(table.strings) == sorted(table.strings) and ident not in table.strings
    assert table.identity == h.identity_coefficient.real and table.sum is h
    state = StateVector.from_amplitudes(random_state(rng, n))
    assert sample_sum(state, table, EXACT) == pytest.approx(expectation(state, h), rel=0, abs=1e-12)
    root = ShotBudget(shots, seed)
    budgets = [root.split(int(rng.integers(0, 2**32)), "h0"), root.split("comm", 2**40)]
    for budget in budgets + budgets:
        want = table.identity
        for k, (ops, c) in enumerate(h.items()):
            if ops != ident:
                want += c.real * sample_pauli_expectation(state, ops, budget.split(k))
        got = sample_sum(state, table, budget)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=100, deadline=None, database=None)
@given(
    n=st.integers(1, 4),
    drift_terms=st.integers(1, 8),
    shifts=st.integers(0, 2),
    cancelling=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_gradient_controllers_match_dense_law(n, drift_terms, shifts, cancelling, seed):
    """At an exact budget both gradient backends give the dense law on random sums.

    The drift is non-diagonal with an identity term, which V adds as a
    constant, and the control carries an identity term, which the
    parameter shift strips.  The control is one string, or several that
    square to a multiple of the identity (`_cancelling_channel`).
    """
    rng = np.random.default_rng(seed)
    h0 = _random_drift(rng, n, drift_terms)
    h_ctrl = _cancelling_channel(rng, n) if cancelling else _two_level_controls(rng, n, 1)[0]
    p_op = ShiftedOperator(h0, _random_shifts(rng, n, shifts))
    state = StateVector.from_amplitudes(random_state(rng, n))
    gain, dt = float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.02, 0.5))
    shift_amps = [(s.alpha, s.state.amps) for s in p_op.shifts]
    want = dense_controller(state.amps, h_ctrl.items(), h0.items(), shift_amps, gain)
    assert controller_grad_psr(state, h_ctrl, p_op, gain, dt) == pytest.approx(want, rel=0, abs=1e-9)
    assert controller_grad_fd(state, h_ctrl, p_op, gain, dt) == pytest.approx(want, rel=0, abs=1e-6)


@pytest.mark.parametrize("backend", ["overlap_hadamard", "grad_fd", "grad_psr"])
def test_exact_budget_seed_does_not_matter(backend):
    """An exact budget never opens a stream, whatever its seed."""
    def run(budget):
        cfg = bench_config(depth=15, backend=backend, budget=budget)
        return run_fqae(BENCH, Y_CTRLS, bench_p(), StateVector.plus(2), cfg)

    a, b = run(ShotBudget(None, seed=123)), run(EXACT)
    assert np.array_equal(a.controls, b.controls)
    assert np.array_equal(a.lyapunov, b.lyapunov)
    assert np.array_equal(a.final_state.amps, b.final_state.amps)
    if backend == "overlap_hadamard":
        exact = run_fqae(BENCH, Y_CTRLS, bench_p(), StateVector.plus(2), bench_config(depth=15))
        assert np.array_equal(a.controls, exact.controls)


def test_control_bound_violation_carries_partial_trace(monkeypatch):
    from feedbackq import feedback

    monkeypatch.setattr(feedback, "_controller_from_pieces", lambda *args: 1e6)
    with pytest.raises(FeedbackRunError, match="bound violated at layer 1") as info:
        run_fqae(BENCH, Y_CTRLS, bench_p(), StateVector.plus(2), bench_config(depth=5))
    assert info.value.partial.depth == 1


def test_sampled_run_still_descends():
    """Shot noise at m=1000 must not break the two-qubit descent."""
    cfg = bench_config(
        depth=100,
        backend="overlap_hadamard",
        budget=ShotBudget(1000, seed=derive_seed(3, "shots")),
    )
    trace = run_fqae(
        BENCH, Y_CTRLS, bench_p(), StateVector.plus(2), cfg,
        track_states=[BENCH_REF[1][1]],
    )
    assert trace.fidelities[-1, 0] > 0.9
    assert trace.lyapunov[-1] < -1.3


def test_gradient_backends_run_the_benchmark():
    for backend in ("grad_fd", "grad_psr"):
        cfg = bench_config(depth=60, backend=backend)
        trace = run_fqae(
            BENCH, Y_CTRLS, bench_p(), StateVector.plus(2), cfg,
            track_states=[BENCH_REF[1][1]],
        )
        assert trace.max_lyapunov_increase() <= 1e-6, backend
        assert trace.fidelities[-1, 0] > 0.9, backend


def test_psr_needs_a_two_level_generator():
    h_ctrl = PauliSum([("XI", 1.0), ("IZ", 0.5)])
    with pytest.raises(UnsupportedGeneratorError):
        controller_grad_psr(StateVector.plus(2), h_ctrl, bench_p(), gain=1.0, dt=0.05)
    # Several strings are squared: X + Y anticommute, and the commuting
    # pairs' cross terms in the square of XI + IX + ZZ + YY cancel.
    pair = PauliSum([("X", 1.0), ("Y", 1.0)])
    cancelling = PauliSum([("XI", 1.0), ("IX", 1.0), ("ZZ", 1.0), ("YY", 1.0)])
    assert _two_level_split(pair) == (math.sqrt(2.0), pair)
    assert _two_level_split(cancelling) == (2.0, cancelling)
    for bad in (PauliSum([("XI", 1.0), ("IX", 1.0)]), PauliSum([("II", 0.7)]), PauliSum([], n=2)):
        with pytest.raises(UnsupportedGeneratorError):
            _two_level_split(bad)


@pytest.mark.parametrize("c", [1e-12, 1e-10, 1e-8, 1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_two_level_split_is_relative_to_the_channel(c):
    """A channel of several strings is judged at its own scale: none is too small to square."""
    for strings, lam in ((("X", "Y"), math.sqrt(2.0)), (("XI", "IX", "ZZ", "YY"), 2.0)):
        h_ctrl = PauliSum([(ops, c) for ops in strings])
        got, stripped = _two_level_split(h_ctrl)
        assert got == pytest.approx(lam * c, rel=1e-12, abs=0) and stripped is h_ctrl
    with pytest.raises(UnsupportedGeneratorError):
        _two_level_split(PauliSum([("XI", c), ("IX", c)]))


@settings(max_examples=200, deadline=None, database=None)
@given(
    ops=st.integers(1, 6).flatmap(lambda n: st.text("IXYZ", min_size=n, max_size=n)),
    exponent=st.floats(-6.0, 3.0),
    negative=st.booleans(),
    identity=st.sampled_from([None, -0.3, 2.5]),
)
def test_one_string_lambda_is_its_coefficient(ops, exponent, negative, identity):
    """A one-string channel's lambda equals the squared sum's, bit for bit, with no product."""
    n = len(ops)
    ident = "I" * n
    if ops == ident:
        ops = "X" + ident[1:]
    c = (-1.0 if negative else 1.0) * 10.0**exponent
    terms = [(ops, c)] + ([] if identity is None else [(ident, identity)])
    h_ctrl = PauliSum(terms)
    lam, stripped = _two_level_split(h_ctrl)
    single = PauliSum([(ops, c)])
    assert stripped == single
    if identity is None:
        assert stripped is h_ctrl
    want = math.sqrt(product(single, single).identity_coefficient.real)
    assert np.float64(lam).tobytes() == np.float64(want).tobytes()


def test_psr_squares_only_channels_of_several_strings(monkeypatch):
    """A depth-8 grad_psr run squares no one-string channel and each cancelling one per call."""
    from feedbackq import feedback

    calls = []
    monkeypatch.setattr(feedback, "product", lambda a, b: calls.append(len(a)) or product(a, b))
    run_fqae(BENCH, Y_CTRLS, bench_p(), StateVector.plus(2), bench_config(depth=8, backend="grad_psr"))
    assert calls == []
    cancelling = PauliSum([("XI", 0.5), ("IX", 0.5), ("ZZ", 0.5), ("YY", 0.5)])
    cfg = bench_config(depth=8, gains=(1.5,), backend="grad_psr")
    run_fqae(BENCH, [cancelling], bench_p(), StateVector.plus(2), cfg)
    assert calls == [4] * 8


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_public_controllers_refuse_bad_gain_and_dt(bad):
    """A gain or dt that is not positive and finite is a ValueError naming it, not nan or inf."""
    state, p_op, ctrl = StateVector.plus(2), bench_p(), Y_CTRLS[0]
    mixer = standard_controls("x_mixer", 2)[0]
    gain_calls = [
        lambda g: controller_overlap_sampled(state, ctrl, p_op, gain=g),
        lambda g: controller_grad_fd(state, ctrl, p_op, gain=g, dt=0.05),
        lambda g: controller_grad_psr(state, ctrl, p_op, gain=g, dt=0.05),
        lambda g: controller_diagonal_fastpath(state, "01", 7.0, BENCH, mixer, g),
    ]
    for call in gain_calls:
        with pytest.raises(ValueError, match="gain must be positive and finite"):
            call(bad)
    for controller in (controller_grad_fd, controller_grad_psr):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            controller(state, ctrl, p_op, gain=1.0, dt=bad)


def test_backend_failure_carries_partial_trace():
    cfg = bench_config(depth=30, backend="grad_psr")
    bad_ctrls = [PauliSum([("XI", 1.0), ("IZ", 0.5)]), Y_CTRLS[1]]
    with pytest.raises(FeedbackRunError) as err:
        run_fqae(BENCH, bad_ctrls, bench_p(), StateVector.plus(2), cfg)
    partial = err.value.partial
    assert partial.depth == 1
    assert np.all(partial.controls[0] == 0.0)


def test_abort_on_increase_truncates():
    cfg = bench_config(dt=0.9, abort_on_increase=1e-9)
    trace = run_fqae(BENCH, Y_CTRLS, bench_p(), StateVector.plus(2), cfg)
    assert trace.aborted_layer is not None
    assert trace.depth < 100


def test_config_validation():
    for dt in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            FeedbackConfig(dt=dt, gains=(1.0,), depth=5)
    for gain in (math.nan, math.inf):
        with pytest.raises(ValueError):
            FeedbackConfig(dt=0.1, gains=(1.0, gain), depth=5)
    with pytest.raises(ValueError):
        FeedbackConfig(dt=0.1, gains=(), depth=5)
    with pytest.raises(ValueError):
        FeedbackConfig(dt=0.1, gains=(1.0, -1.0), depth=5)
    with pytest.raises(ValueError):
        FeedbackConfig(dt=0.1, gains=(1.0,), depth=0)
    with pytest.raises(ValueError):
        FeedbackConfig(dt=0.1, gains=(1.0,), depth=5, backend="tensor")
    with pytest.raises(ValueError):
        FeedbackConfig(dt=0.1, gains=(1.0,), depth=5, trotter_slices=0)
    with pytest.raises(ValueError):
        FeedbackConfig(dt=0.1, gains=(1.0,), depth=5, abort_on_increase=math.nan)


def test_config_refuses_non_integer_counts():
    """A float or bool depth or slice count is a ValueError, not a TypeError mid-run."""
    for bad in (2.5, 2.0, True, "3", None):
        with pytest.raises(ValueError, match="depth must be an integer >= 1"):
            FeedbackConfig(dt=0.1, gains=(1.0,), depth=bad)
        with pytest.raises(ValueError, match="trotter_slices must be an integer >= 1"):
            FeedbackConfig(dt=0.1, gains=(1.0,), depth=5, trotter_slices=bad)
    cfg = FeedbackConfig(dt=0.1, gains=(1.0, 1.0), depth=np.int64(2), trotter_slices=np.int32(2))
    trace = run_fqae(BENCH, Y_CTRLS, bench_p(), StateVector.plus(2), cfg)
    assert trace.depth == 2


def test_shift_and_operator_validation():
    for alpha in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            Shift(alpha, BENCH_REF[0][1], -2.5)
    with pytest.raises(ValueError):
        ShiftedOperator(BENCH, [Shift(1.0, StateVector.plus(3), 0.0)])
    other = build_ising(IsingSpec(2, ((0.0, 0.1), (0.1, 0.0)), (1.0, 1.0)))
    with pytest.raises(ValueError):
        run_fqae(other, Y_CTRLS, bench_p(), StateVector.plus(2), bench_config(depth=2))


def test_tracked_states_checked_before_the_first_layer(monkeypatch):
    """A tracked state on the wrong qubit count is refused by name before any step runs."""
    steps = []
    apply = TrotterPlan.apply
    monkeypatch.setattr(TrotterPlan, "apply", lambda *a, **k: steps.append(1) or apply(*a, **k))
    with pytest.raises(ValueError, match="tracked state"):
        run_fqae(BENCH, Y_CTRLS, bench_p(), StateVector.plus(2), bench_config(depth=2),
                 track_states=[BENCH_REF[1][1], StateVector.plus(3)])
    assert steps == []


def test_alpha_bound_is_twice_the_one_norm():
    assert alpha_from_bound(BENCH) == pytest.approx(2.0 * one_norm(BENCH)) == 7.0


def test_alpha_iterative_doubles_until_accepted():
    seen = []

    def fake_run(alpha):
        seen.append(alpha)
        return alpha

    assert alpha_iterative(fake_run, 0.5, lambda a: a < 3.0) == 4.0
    assert seen == [0.5, 1.0, 2.0, 4.0]
    for alpha0 in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            alpha_iterative(fake_run, alpha0, lambda a: False)
    assert seen == [0.5, 1.0, 2.0, 4.0]
    seen.clear()
    with pytest.raises(AlphaSearchError) as failed:
        alpha_iterative(fake_run, 1.0, lambda a: True, max_doublings=3)
    assert isinstance(failed.value, FeedbackRunError)
    assert failed.value.partial == seen[-1] == 8.0


def test_deflation_climbs_the_benchmark_spectrum():
    stages = deflate_spectrum(
        BENCH, Y_CTRLS, [(StateVector.plus(2), bench_config(depth=600))] * 2, [7.0],
        reference=BENCH_REF[:2],
    )
    assert len(stages) == 2
    assert stages[0].energy <= stages[1].energy
    assert stages[0].energy == pytest.approx(-2.5, abs=0.15)
    assert stages[1].energy == pytest.approx(-1.5, abs=0.15)
    assert stages[0].warning is None and stages[1].warning is None
    assert fidelity(BENCH_REF[1][1], stages[1].trace.final_state) > 0.9


def test_deflation_accepts_per_stage_settings(monkeypatch):
    from feedbackq import feedback

    seen = []
    original = feedback.run_fqae

    def recording(h0, h_ctrls, p_op, psi0, config, track_states=()):
        seen.append((psi0, config, p_op.alphas))
        return original(h0, h_ctrls, p_op, psi0, config, track_states)

    monkeypatch.setattr(feedback, "run_fqae", recording)
    settings = [
        (StateVector.plus(2), bench_config(dt=0.08, depth=3)),
        (StateVector.basis(2, "01"), bench_config(dt=0.04, depth=3)),
    ]
    stages = deflate_spectrum(BENCH, Y_CTRLS, settings, [7.0])
    assert len(stages) == 2
    assert [(psi0, config) for psi0, config, _ in seen] == settings
    assert [alphas for _, _, alphas in seen] == [(), (7.0,)]
    for alphas in ([], [7.0, 7.0]):
        with pytest.raises(ValueError):
            deflate_spectrum(BENCH, Y_CTRLS, settings, alphas)


def test_deflation_warns_on_unconverged_stage():
    stages = deflate_spectrum(
        BENCH, Y_CTRLS, [(StateVector.plus(2), bench_config(depth=1))], [],
        reference=BENCH_REF[:1],
    )
    assert stages[0].warning is not None
    assert "below threshold" in stages[0].warning


def test_tuner_returns_largest_descending_step():
    def run_at(dt):
        cfg = bench_config(dt=dt, depth=50, abort_on_increase=1e-9)
        return [run_fqae(BENCH, Y_CTRLS, bench_p(), StateVector.plus(2), cfg)]

    dt, traces = tune_time_step(run_at, [0.9, 0.08, 0.01], tolerance=1e-9)
    assert dt == 0.08
    assert traces[0].max_lyapunov_increase() <= 1e-9
    with pytest.raises(RuntimeError):
        tune_time_step(run_at, [0.9], tolerance=1e-9)


def test_trace_depth_and_monitors():
    trace = run_fqae(
        BENCH, Y_CTRLS, bench_p(), StateVector.plus(2), bench_config(depth=7)
    )
    assert trace.depth == 7
    assert trace.controls.shape == (7, 2)
    assert trace.max_abs_controls().shape == (7,)
    assert list(trace.layers) == list(range(1, 8))
