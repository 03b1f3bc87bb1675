"""End-to-end acceptance checks, one verdict line per criterion.

Each test records a single PASS/FAIL line through the shared conftest
hook so the terminal summary lists all eight verdicts together.  The
verdict line is recorded before the asserts fire; a criterion that
fails its bound still reports its measured values.
"""

import csv
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from feedbackq import (
    EXACT,
    FeedbackConfig,
    IsingSpec,
    PauliSum,
    Shift,
    ShiftedOperator,
    ShotBudget,
    StateVector,
    apply_pauli_exp,
    apply_sum_trotter,
    build_h2,
    build_ising,
    commutator_i,
    controller_diagonal_fastpath,
    controller_grad_fd,
    controller_grad_psr,
    controller_overlap_sampled,
    derive_seed,
    expectation,
    fidelity,
    H2Spec,
    inner,
    lyapunov_value,
    product,
    random_ising,
    reference_spectrum,
    run_falqon,
    run_fqae,
    sample_pauli_expectation,
    standard_controls,
    tune_time_step,
)
from feedbackq.cli import EXIT_OK, main

from conftest import record_criterion
from _oracles import dense_controller, dense_sum, random_pauli_terms, random_state


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BENCH = build_ising(IsingSpec(2, ((0.0, 0.5), (0.5, 0.0)), (1.0, 2.0)))
BENCH_GROUND = StateVector.basis(2, 0b11)
BENCH_P = ShiftedOperator(BENCH, [Shift(7.0, BENCH_GROUND, -2.5)])
Y_CTRLS = standard_controls("y_per_qubit", 2)
BENCH_CFG = FeedbackConfig(dt=0.08, gains=(1.5, 1.5), depth=100)


@contextmanager
def criterion(number):
    """Record a FAIL line when the body dies before reaching its verdict."""
    try:
        yield
    except AssertionError:
        raise
    except Exception as exc:
        record_criterion(number, False, f"did not complete: {exc!r}")
        raise


def test_benchmark_operator_diagonals():
    """Criterion 1: drift and shifted-operator diagonals, exact floats."""
    with criterion(1):
        h_diag = [expectation(StateVector.basis(2, b), BENCH) for b in range(4)]
        p_diag = [lyapunov_value(StateVector.basis(2, b), BENCH_P) for b in range(4)]
        ref = reference_spectrum(BENCH)
        ground_ok = ref[0][0] == -2.5 and fidelity(ref[0][1], BENCH_GROUND) == pytest.approx(1.0)
        ok = (
            h_diag == [3.5, -1.5, 0.5, -2.5]
            and p_diag == [3.5, -1.5, 0.5, 4.5]
            and ground_ok
        )
        record_criterion(
            1,
            ok,
            f"drift diag {h_diag} == (3.5, -1.5, 0.5, -2.5) and shifted diag "
            f"{p_diag} == (3.5, -1.5, 0.5, 4.5), exact float equality",
        )
        assert h_diag == [3.5, -1.5, 0.5, -2.5]
        assert p_diag == [3.5, -1.5, 0.5, 4.5]
        assert ground_ok


def test_benchmark_feedback_reaches_target():
    """Criterion 2: 100-layer exact feedback run on the two-qubit bench."""
    with criterion(2):
        target = StateVector.basis(2, 0b01)
        trace = run_fqae(BENCH, Y_CTRLS, BENCH_P, StateVector.plus(2), BENCH_CFG,
                         track_states=[target])
        rise = trace.max_lyapunov_increase()
        fid = float(trace.fidelities[-1, 0])
        v_final = float(trace.lyapunov[-1])
        mono_ok = rise <= 1e-9
        fid_ok = fid >= 0.99
        v_ok = abs(v_final - (-1.5)) <= 0.05
        record_criterion(
            2,
            mono_ok and fid_ok and v_ok,
            f"max V rise {rise:.1e} (<= 1e-9 {'ok' if mono_ok else 'violated'}); "
            f"final fid {fid:.6f} (needs >= 0.99), final V {v_final:.6f} "
            f"(needs within 0.05 of -1.5); the exact dynamics plateau at "
            f"fid 0.9583 / V -1.4166 for any depth, so the two convergence "
            f"bounds are unreachable for this start state",
        )
        assert mono_ok
        assert fid >= 0.99
        assert abs(v_final - (-1.5)) <= 0.05


def test_controller_backends_cross_validate():
    """Criterion 3: four controller routes agree on 50 run states."""
    with criterion(3):
        def state_after(layers):
            cfg = FeedbackConfig(dt=0.08, gains=(1.5, 1.5), depth=layers)
            return run_fqae(BENCH, Y_CTRLS, BENCH_P, StateVector.plus(2), cfg).final_state

        rng = np.random.default_rng(8833)
        worst = {"overlap": 0.0, "psr": 0.0, "fd": 0.0}
        shifts = [(s.alpha, s.state.amps) for s in BENCH_P.shifts]
        for _ in range(50):
            st = state_after(int(rng.integers(100)) + 1)
            q = int(rng.integers(2))
            base = dense_controller(st.amps, Y_CTRLS[q].items(), BENCH.items(), shifts, 1.5)
            worst["overlap"] = max(
                worst["overlap"],
                abs(controller_overlap_sampled(st, Y_CTRLS[q], BENCH_P, 1.5, EXACT) - base),
            )
            worst["psr"] = max(
                worst["psr"],
                abs(controller_grad_psr(st, Y_CTRLS[q], BENCH_P, 1.5, 0.08) - base),
            )
            worst["fd"] = max(
                worst["fd"],
                abs(controller_grad_fd(st, Y_CTRLS[q], BENCH_P, 1.5, 0.08) - base),
            )
        ok = worst["overlap"] <= 1e-8 and worst["psr"] <= 1e-8 and worst["fd"] <= 1e-6
        record_criterion(
            3,
            ok,
            f"50 state/channel pairs: overlap route off by {worst['overlap']:.1e} "
            f"(<= 1e-8), shift rule {worst['psr']:.1e} (<= 1e-8), central "
            f"difference {worst['fd']:.1e} (<= 1e-6 at eps 1e-5)",
        )
        assert worst["overlap"] <= 1e-8
        assert worst["psr"] <= 1e-8
        assert worst["fd"] <= 1e-6


def test_diagonal_fastpath_matches_generic():
    """Criterion 4: closed-form diagonal controller vs the generic route."""
    with criterion(4):
        rng = np.random.default_rng(4242)
        worst = 0.0
        for trial in range(20):
            n = int(rng.integers(2, 7))
            h0 = build_ising(random_ising(n, derive_seed(4242, "fastpath", trial)))
            mixer = standard_controls("x_mixer", n)[0]
            bits = "".join(rng.choice(["0", "1"], size=n))
            alpha0 = float(rng.uniform(0.5, 5.0))
            pivot = StateVector.basis(n, int(bits, 2))
            p_op = ShiftedOperator(h0, [Shift(alpha0, pivot, expectation(pivot, h0))])
            st = StateVector.from_amplitudes(
                random_state(np.random.default_rng(9000 + trial), n)
            )
            fast = controller_diagonal_fastpath(st, bits, alpha0, h0, mixer, gain=1.0)
            generic = controller_overlap_sampled(st, mixer, p_op, gain=1.0)
            worst = max(worst, abs(fast - generic))
        record_criterion(
            4,
            worst <= 1e-10,
            f"20 random diagonal instances (n <= 6, sum-X mixer): worst "
            f"fast-path deviation {worst:.1e} (<= 1e-10)",
        )
        assert worst <= 1e-10


def test_molecular_spectrum_stages(tmp_path):
    """Criterion 5: three-stage spectrum of the two-qubit molecule."""
    with criterion(5):
        out = str(tmp_path / "h2")
        code = main(["spectrum", "--config", str(CONFIG_DIR / "h2_spectrum.json"),
                     "--out", out])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "h2_spectrum.json").read_text())
        energies = summary["energies"]

        dense = dense_sum(list(build_h2(H2Spec.from_table(1.05)).items()))
        oracle = np.linalg.eigvalsh(dense)[:3]
        pinned = (-1.0904, -0.7711, -0.3711)
        oracle_ok = np.allclose(oracle, pinned, atol=1e-3)

        worst_e = max(abs(energies[k] - oracle[k]) for k in range(3))
        worst_rise = 0.0
        for stage in range(3):
            with open(tmp_path / f"h2_stage{stage}_trace.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            v_idx = rows[0].index("V")
            v_col = [float(r[v_idx]) for r in rows[1:]]
            worst_rise = max(worst_rise, float(np.max(np.diff(v_col))))
        ok = oracle_ok and worst_e <= 1e-2 and worst_rise <= 1e-4
        record_criterion(
            5,
            ok,
            f"three stage energies {[f'{e:.4f}' for e in energies]} within "
            f"{worst_e:.1e} of the dense oracle (<= 1e-2, oracle matches the "
            f"pinned (-1.0904, -0.7711, -0.3711) to 1e-3); per-stage max V "
            f"rise {worst_rise:.1e} (<= 1e-4 over 16 product-formula slices)",
        )
        assert oracle_ok
        assert worst_e <= 1e-2
        assert worst_rise <= 1e-4


def test_shot_noise_statistics():
    """Criterion 6: sampled-controller bias, scaling, and backend spread."""
    with criterion(6):
        start = StateVector.plus(2)

        exact_tr = run_fqae(BENCH, Y_CTRLS, BENCH_P, start,
                            FeedbackConfig(dt=0.08, gains=(1.5, 1.5), depth=25))
        samples = []
        for s in range(50):
            cfg = FeedbackConfig(
                dt=0.08, gains=(1.5, 1.5), depth=25, backend="grad_psr",
                budget=ShotBudget(100, seed=derive_seed(2026, "bias", s)),
            )
            samples.append(run_fqae(BENCH, Y_CTRLS, BENCH_P, start, cfg).controls)
        arr = np.array(samples)
        bias = arr.mean(axis=0) - exact_tr.controls
        se = arr.std(axis=0, ddof=1) / np.sqrt(arr.shape[0])
        # layer 1 controls are pinned to zero in every run, so its SE is 0
        bias_ratio = float((np.abs(bias[1:]) / se[1:]).max())

        psi1 = apply_sum_trotter(start, BENCH, 0.08)
        sig = {}
        for m in (100, 10000):
            vals = np.array([
                [
                    controller_overlap_sampled(
                        psi1, Y_CTRLS[q], BENCH_P, 1.5,
                        ShotBudget(m, seed=derive_seed(5150, "sig", m, r, q)),
                    )
                    for q in range(2)
                ]
                for r in range(400)
            ])
            sig[m] = vals.std(axis=0, ddof=1)
        ratios = sig[100] / sig[10000]

        spread = {}
        for backend in ("grad_psr", "overlap_hadamard"):
            runs = []
            for s in range(20):
                cfg = FeedbackConfig(
                    dt=0.08, gains=(1.5, 1.5), depth=25, backend=backend,
                    budget=ShotBudget(100, seed=derive_seed(314, "var", s)),
                )
                runs.append(run_fqae(BENCH, Y_CTRLS, BENCH_P, start, cfg).controls)
            spread[backend] = float(np.array(runs).std(axis=0, ddof=1)[1:].mean())

        bias_ok = bias_ratio <= 3.0
        ratio_ok = bool(np.all((ratios >= 8.0) & (ratios <= 12.0)))
        spread_ok = spread["grad_psr"] < spread["overlap_hadamard"]
        record_criterion(
            6,
            bias_ok and ratio_ok and spread_ok,
            f"mean 100-shot trajectory bias {bias_ratio:.2f} standard errors "
            f"(<= 3, 50 runs); controller sigma shrinks by "
            f"{ratios[0]:.2f}/{ratios[1]:.2f} per channel from 100 to 10000 "
            f"shots (within 10 +/- 2); shift-rule spread "
            f"{spread['grad_psr']:.2f} < overlap spread "
            f"{spread['overlap_hadamard']:.2f}",
        )
        assert bias_ok
        assert ratio_ok
        assert spread_ok


SCALING_LADDER = (0.1, 0.05, 0.02, 0.012, 0.01, 0.005, 0.002)
SCALING_TOL = 1e-6


def _scaling_problems(n, count):
    probs = []
    for i in range(count):
        h0 = build_ising(random_ising(n, derive_seed(0, "sweep", n, i)))
        ref = reference_spectrum(h0, count=2)
        p_op = ShiftedOperator(h0, [Shift(4.0, ref[0][1], ref[0][0])])
        probs.append((h0, p_op, ref[1][1]))
    return probs


def _scaling_run_at(n, probs):
    ctrls = standard_controls("x_mixer", n)

    def run_at(dt):
        out = []
        for h0, p_op, tgt in probs:
            cfg = FeedbackConfig(dt=dt, gains=(1.0,), depth=500,
                                 abort_on_increase=SCALING_TOL)
            out.append(run_fqae(h0, ctrls, p_op, StateVector.plus(n), cfg,
                                track_states=[tgt]))
        return out

    return run_at


def test_random_ising_scaling_study():
    """Criterion 7: tuned-step scaling study over random instances."""
    with criterion(7):
        tuned = {}
        descent_ok = True
        for n in range(5, 11):
            probs = _scaling_problems(n, 15)
            dt_n, traces = tune_time_step(_scaling_run_at(n, probs),
                                          SCALING_LADDER, tolerance=SCALING_TOL)
            tuned[n] = dt_n
            descent_ok = descent_ok and all(
                t.aborted_layer is None and t.max_lyapunov_increase() <= SCALING_TOL
                for t in traces
            )

        probs = _scaling_problems(9, 20)
        dt9, traces20 = tune_time_step(_scaling_run_at(9, probs),
                                       SCALING_LADDER, tolerance=SCALING_TOL)
        descent_ok = descent_ok and all(
            t.aborted_layer is None and t.max_lyapunov_increase() <= SCALING_TOL
            for t in traces20
        )
        fids = np.array([t.fidelities[-1, 0] for t in traces20])
        frac = float((fids > 0.4).mean())
        frac_ok = frac >= 0.6
        record_criterion(
            7,
            descent_ok and frac_ok,
            f"tuned dt per size {tuned} with every accepted run descending at "
            f"every layer (tol 1e-6, 500 layers, alpha 4, gain 1); 20-instance "
            f"9-qubit fraction above fid 0.4 is {frac:.2f} (needs >= 0.60; "
            f"fids {fids.min():.2f}..{fids.max():.2f}, sd {fids.std():.2f}); "
            f"no step size in the ladder attains 0.60 even with the descent "
            f"requirement waived, so the threshold is unreachable here",
        )
        assert descent_ok
        assert frac >= 0.6


def test_module_invariant_suites():
    """Criterion 8: compact re-checks of the four module property suites."""
    with criterion(8):
        rng = np.random.default_rng(112)

        # algebra vs an independent dense oracle
        algebra_worst = 0.0
        for trial in range(8):
            n = int(rng.integers(1, 4))
            a_terms = random_pauli_terms(np.random.default_rng(500 + trial), n, 4)
            b_terms = random_pauli_terms(np.random.default_rng(700 + trial), n, 4)
            a, b = PauliSum(a_terms), PauliSum(b_terms)
            da, db = dense_sum(a_terms), dense_sum(b_terms)
            algebra_worst = max(
                algebra_worst,
                float(np.abs(dense_sum(list(product(a, b).items()) or [("I" * n, 0.0)]) - da @ db).max()),
                float(np.abs(dense_sum(list(commutator_i(a, b).items()) or [("I" * n, 0.0)]) - 1j * (da @ db - db @ da)).max()),
            )

        # unitarity of the evolution engine
        engine_worst = 0.0
        for trial in range(8):
            n = int(rng.integers(1, 4))
            h = PauliSum(random_pauli_terms(np.random.default_rng(900 + trial), n, 5))
            st = StateVector.from_amplitudes(random_state(np.random.default_rng(trial), n))
            other = StateVector.from_amplitudes(random_state(np.random.default_rng(50 + trial), n))
            moved = apply_sum_trotter(st, h, 0.37, slices=3)
            moved_other = apply_sum_trotter(other, h, 0.37, slices=3)
            engine_worst = max(
                engine_worst,
                abs(float(np.linalg.norm(moved.amps)) - 1.0),
                abs(inner(moved_other, moved) - inner(other, st)),
            )
            ops = ("XYZ" * n)[:n]
            back = apply_pauli_exp(apply_pauli_exp(st, ops, 0.4), ops, -0.4)
            engine_worst = max(engine_worst, float(np.abs(back.amps - st.amps).max()))

        # estimator bias and 1/sqrt(m) spread scaling
        probe = apply_pauli_exp(StateVector.plus(2), "ZI", 0.3)
        exact_val = expectation(probe, PauliSum([("XI", 1.0)]))
        stats = {}
        for m in (100, 10000):
            vals = np.array([
                sample_pauli_expectation(probe, "XI",
                                         ShotBudget(m, seed=derive_seed(606, "c8", m, r)))
                for r in range(300)
            ])
            stats[m] = (
                abs(float(vals.mean()) - exact_val) / (vals.std(ddof=1) / np.sqrt(len(vals))),
                float(vals.std(ddof=1)),
            )
        sd_ratio = stats[100][1] / stats[10000][1]
        sampling_ok = stats[100][0] <= 3.0 and stats[10000][0] <= 3.0 and 8.0 <= sd_ratio <= 12.0

        # feedback fixed point and the zero-shift special case
        target = StateVector.basis(2, 0b01)
        cfg = FeedbackConfig(dt=0.08, gains=(1.5, 1.5), depth=40)
        fixed = run_fqae(BENCH, Y_CTRLS, BENCH_P, target, cfg, track_states=[target])
        fixed_ok = bool(np.all(fixed.controls == 0.0)) and bool(
            np.allclose(fixed.lyapunov, -1.5, atol=1e-12)
        )
        shiftless = run_fqae(
            BENCH, Y_CTRLS, ShiftedOperator(BENCH, ()), StateVector.plus(2),
            FeedbackConfig(dt=0.08, gains=(1.5, 1.5), depth=40),
        )
        falqon = run_falqon(BENCH, Y_CTRLS, StateVector.plus(2), cfg)
        reduction_ok = (
            np.array_equal(shiftless.controls, falqon.controls)
            and np.array_equal(shiftless.lyapunov, falqon.lyapunov)
            and np.array_equal(shiftless.final_state.amps, falqon.final_state.amps)
            and np.array_equal(falqon.lyapunov, falqon.energy)
        )

        ok = (
            algebra_worst <= 1e-10
            and engine_worst <= 1e-12
            and sampling_ok
            and fixed_ok
            and reduction_ok
        )
        record_criterion(
            8,
            ok,
            f"algebra vs dense oracle off by {algebra_worst:.1e} (<= 1e-10); "
            f"unitarity/norm drift {engine_worst:.1e} (<= 1e-12); estimator "
            f"bias {stats[100][0]:.2f}/{stats[10000][0]:.2f} standard errors "
            f"with sigma ratio {sd_ratio:.2f} (within 10 +/- 2); eigenstate "
            f"fixed point and zero-shift reduction "
            f"{'hold' if fixed_ok and reduction_ok else 'broken'}",
        )
        assert algebra_worst <= 1e-10
        assert engine_worst <= 1e-12
        assert sampling_ok
        assert fixed_ok
        assert reduction_ok
