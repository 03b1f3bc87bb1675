"""Feedback-driven layer growth for ground- and excited-state preparation.

One layer applies the drift step exp(-i*H0*dt) followed by the control
steps exp(-i*u^(q)*H_q*dt) in channel order.  The next controls are then
read off the current state through one of four interchangeable backends
(exact commutator algebra, sampled expectation/overlap assembly, finite
differences on the Lyapunov value, or the parameter-shift rule), all
estimating the same law

    u_{k+1}^(q) = -K_q <psi_k| i[H_q, P] |psi_k>,

where P = H0 + sum_j alpha_j |q_j><q_j| lifts already-known eigenstates
above the target.  With no shifts the loop reduces to plain ground-state
descent.  Deflation stacks converged states into P to climb the
spectrum one eigenstate at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .pauli import PauliSum, commutator_i, one_norm, product
from .sampling import (
    EXACT,
    KeyTable,
    ShotBudget,
    TermTable,
    sample_hadamard_test,
    sample_sum,
    sample_zero_fraction,
)
from .states import (
    StateVector,
    TrotterPlan,
    _check_count,
    apply_pauli,
    expectation,
    fidelity,
    pauli_expectation,
)

BACKENDS = ("exact", "overlap_hadamard", "grad_fd", "grad_psr")

CONTROL_BOUND_SLACK = 1e-9
# A deflation stage whose final state overlaps no reference eigenstate
# by at least this fidelity carries a warning.
DEFLATION_WARN_FIDELITY = 0.5
# Layers per key table of a sampled run, so that a table's memory does
# not grow with depth.
_KEY_BLOCK_LAYERS = 64


def _check_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


class UnsupportedGeneratorError(ValueError):
    """The control Hamiltonian does not admit the parameter-shift rule."""


class FeedbackRunError(RuntimeError):
    """A backend failed or broke its control bound mid-run; `partial`
    holds the trace up to the failure."""

    def __init__(self, message: str, partial: "RunTrace"):
        super().__init__(message)
        self.partial = partial


class AlphaSearchError(FeedbackRunError):
    """`alpha_iterative` ran out of doublings; `partial` holds the last run's result."""


@dataclass(frozen=True)
class Shift:
    """One projector shift alpha * |state><state| with the state's drift energy."""

    alpha: float
    state: StateVector
    energy: float

    def __post_init__(self) -> None:
        _check_positive("shift weight", self.alpha)


class ShiftedOperator:
    """P = H0 + sum_j alpha_j |q_j><q_j|, kept in factored form.

    The projectors are never expanded into Pauli strings; every consumer
    works from the drift sum plus the stored reference states.
    """

    __slots__ = ("h0", "shifts", "_h0_table")

    def __init__(self, h0: PauliSum, shifts: Sequence[Shift] = ()):
        if not h0.is_hermitian:
            raise ValueError("drift Hamiltonian must be hermitian")
        for s in shifts:
            if s.state.n != h0.n:
                raise ValueError("shift state qubit count does not match the drift")
        self.h0 = h0
        self.shifts = tuple(shifts)
        self._h0_table: Optional[TermTable] = None

    @property
    def alphas(self) -> Tuple[float, ...]:
        return tuple(s.alpha for s in self.shifts)

    def _h0_terms(self) -> TermTable:
        """H0's term table, built on the first sampled estimate of V."""
        if self._h0_table is None:
            self._h0_table = TermTable(self.h0)
        return self._h0_table


def lyapunov_value(state: StateVector, p_op: ShiftedOperator) -> float:
    """V = <psi|H0|psi> + sum_j alpha_j |<q_j|psi>|**2."""
    value = expectation(state, p_op.h0)
    for s in p_op.shifts:
        value += s.alpha * fidelity(s.state, state)
    return value


def alpha_from_bound(h0: PauliSum) -> float:
    """Uniform shift weight 2*sum|c_k|, an upper bound on every energy gap."""
    return 2.0 * one_norm(h0)


def alpha_iterative(
    run: Callable[[float], object],
    alpha0: float,
    converged_to_lower: Callable[[object], bool],
    max_doublings: int = 32,
) -> float:
    """Double alpha until the run stops falling back onto a known lower state.

    `run(alpha)` executes the experiment; `converged_to_lower(result)`
    reports whether the final state's dominant fidelity (above 1/2) sits
    on an already-known eigenstate, which means alpha was too small.
    Raises `AlphaSearchError` when no doubling is enough, and as soon as
    two runs in a row (alpha and 2*alpha) applied no control at all: each
    control is linear in alpha, so such a run applies none at any alpha
    and its final state never changes (a start on a known lower
    eigenstate does this).
    """
    _check_positive("alpha0", alpha0)
    alpha = float(alpha0)
    idle = False
    for _ in range(max_doublings + 1):
        result = run(alpha)
        if not converged_to_lower(result):
            return alpha
        was_idle, idle = idle, isinstance(result, RunTrace) and not np.any(result.controls)
        if was_idle and idle:
            break
        alpha *= 2.0
    raise AlphaSearchError(f"no sufficient alpha found within {max_doublings} doublings", result)


# ---------------------------------------------------------------------------
# Controller backends.  All of them estimate -K <psi| i[H_q, P] |psi>.
# ---------------------------------------------------------------------------

def _assemble(comm_value: float, pieces: Sequence[Tuple[float, complex, complex]], gain: float) -> float:
    """Combine the commutator part with the projector cross terms.

    Each piece is (alpha_j, <psi|H_q|q_j>, <q_j|psi>); the projector
    contributes 2*Re{i * alpha_j * w_j * o_j} on top of the commutator
    expectation, and the gain flips the sign into a descent direction.
    """
    total = comm_value
    for alpha, w, o in pieces:
        total += 2.0 * alpha * (1j * w * o).real
    return -gain * total


def _controller_from_pieces(
    state: StateVector,
    comm: TermTable,
    h_ctrl: PauliSum,
    p_op: ShiftedOperator,
    gain: float,
    budget: ShotBudget,
) -> float:
    """Shared evaluation path for the exact and overlap/Hadamard backends.

    `comm` is the term table of i[H_q, H0].  At an exact budget the
    commutator value is one `expectation` call on its sum; a sampled
    budget estimates it term by term, term k on the stream
    `budget.split("comm", k)`.  The overlaps always flow through the
    sampling layer, whose exact sentinel returns the underlying value
    untouched, so an exact budget makes this function exact linear
    algebra.
    """
    if budget.exact:
        comm_value = expectation(state, comm.sum)
    else:
        comm_value = sample_sum(state, comm, budget.split("comm"))
    pieces = []
    for j, shift in enumerate(p_op.shifts):
        w = 0j
        for k, (ops, coeff) in enumerate(h_ctrl.items()):
            re = sample_hadamard_test(state, ops, shift.state, "real", budget.split("ctrl", j, k, 0))
            im = sample_hadamard_test(state, ops, shift.state, "imag", budget.split("ctrl", j, k, 1))
            w += coeff.real * complex(re, im)
        ident = "I" * state.n
        o_re = sample_hadamard_test(shift.state, ident, state, "real", budget.split("ref", j, 0))
        o_im = sample_hadamard_test(shift.state, ident, state, "imag", budget.split("ref", j, 1))
        pieces.append((shift.alpha, w, complex(o_re, o_im)))
    return _assemble(comm_value, pieces, gain)


def controller_overlap_sampled(
    state: StateVector,
    h_ctrl: PauliSum,
    p_op: ShiftedOperator,
    gain: float,
    budget: ShotBudget = EXACT,
) -> float:
    """-K <psi|i[H_q,P]|psi> from Pauli expectations and Hadamard tests.

    Per-term commutator expectations, the per-term overlaps <psi|O|q_j>
    (real and imaginary parts separately), and the overlaps <q_j|psi>
    each consume an independent child stream of `budget`; the default
    exact budget gives the exact law, which is what the `exact` backend
    computes.
    """
    _check_positive("gain", gain)
    comm = TermTable(commutator_i(h_ctrl, p_op.h0))
    return _controller_from_pieces(state, comm, h_ctrl, p_op, gain, budget)


def _sampled_lyapunov(state: StateVector, p_op: ShiftedOperator, budget: ShotBudget, tag: int) -> float:
    """V estimated piecewise: Pauli terms of H0 plus zero-state fractions.

    The identity coefficient of H0 is a classical constant and is added
    exactly; everything else is one sampled scalar per term or shift.
    """
    total = sample_sum(state, p_op._h0_terms(), budget.split(tag, "h0"))
    for j, shift in enumerate(p_op.shifts):
        overlap_sq = min(fidelity(shift.state, state), 1.0)
        total += shift.alpha * sample_zero_fraction(overlap_sq, budget.split(tag, "shift", j))
    return total


def controller_grad_fd(
    state: StateVector,
    h_ctrl: PauliSum,
    p_op: ShiftedOperator,
    gain: float,
    dt: float,
    budget: ShotBudget = EXACT,
    slices: int = 1,
) -> float:
    """-(K/dt) times a central difference of V along this control channel.

    The probe appends exp(-i*delta*dt*H_q) to the current state for
    delta = +/-epsilon, which realizes V(u_k +/- epsilon) relative to the
    just-applied layer.  epsilon is 1e-5 at an exact budget and 1e-3
    at a sampled one, where shot noise swamps a smaller difference.
    """
    _check_positive("gain", gain)
    _check_positive("dt", dt)
    epsilon = 1e-5 if budget.exact else 1e-3
    plan = TrotterPlan.from_sum(h_ctrl, dt)
    plus = plan.apply(state, scale=epsilon, slices=slices)
    minus = plan.apply(state, scale=-epsilon, slices=slices)
    v_plus = _sampled_lyapunov(plus, p_op, budget, tag=0)
    v_minus = _sampled_lyapunov(minus, p_op, budget, tag=1)
    return -(gain / dt) * (v_plus - v_minus) / (2.0 * epsilon)


def _two_level_split(h_ctrl: PauliSum) -> Tuple[float, PauliSum]:
    """Validate a +/-lambda spectrum and return (lambda, traceless part).

    An identity component only contributes a global phase to the control
    unitary, so it is stripped before squaring; the remainder must square
    to lambda**2 times the identity.  One string c*P squares to c**2 * I
    because P**2 = I, so its lambda is read off c; two or more strings
    are squared, since commuting pairs may cancel (XI + IX + ZZ + YY
    squares to 4 I) where no pairwise test would see it.  They are
    squared scaled to unit one-norm, so the test is relative to the
    channel's size and no small channel's square is pruned away.
    """
    stripped = h_ctrl
    if h_ctrl.identity_coefficient:
        ident = "I" * h_ctrl.n
        stripped = PauliSum([(ops, c) for ops, c in h_ctrl.items() if ops != ident], n=h_ctrl.n)
    if len(stripped) == 0:
        raise UnsupportedGeneratorError(
            "control Hamiltonian is a multiple of the identity; use controller_grad_fd"
        )
    scale = 1.0
    if len(stripped) == 1:
        ((_, c),) = stripped.items()
        lam_sq, residual = (c * c).real, 0.0
    else:
        scale = one_norm(stripped)
        unit = stripped * (1.0 / scale)
        square = product(unit, unit)
        lam_sq, residual = square.identity_coefficient.real, one_norm(square)
    if residual > 1e-10 or lam_sq <= 0:
        raise UnsupportedGeneratorError(
            "control Hamiltonian does not have a two-point spectrum +/-lambda; "
            "use controller_grad_fd instead"
        )
    return scale * math.sqrt(lam_sq), stripped


def _two_level_rotation(state: StateVector, stripped: PauliSum, lam: float, theta: float) -> StateVector:
    """exp(-i*theta*H)|psi> in closed form for H with H**2 = lambda**2 I."""
    acc = np.zeros_like(state.amps)
    for ops, coeff in stripped.items():
        acc += coeff.real * apply_pauli(state, ops)
    amps = math.cos(lam * theta) * state.amps - 1j * (math.sin(lam * theta) / lam) * acc
    return StateVector(amps, copy=False)


def controller_grad_psr(
    state: StateVector,
    h_ctrl: PauliSum,
    p_op: ShiftedOperator,
    gain: float,
    dt: float,
    budget: ShotBudget = EXACT,
) -> float:
    """Parameter-shift gradient for two-eigenvalue control Hamiltonians.

    Shifts the control variable by s = pi/(4*lambda*dt) and returns
    -K*lambda*(V(u+s) - V(u-s)), which reproduces the exact commutator
    law for any dt.
    """
    _check_positive("gain", gain)
    _check_positive("dt", dt)
    lam, stripped = _two_level_split(h_ctrl)
    shift = math.pi / (4.0 * lam * dt)
    prefactor = -gain * lam
    plus = _two_level_rotation(state, stripped, lam, shift * dt)
    minus = _two_level_rotation(state, stripped, lam, -shift * dt)
    v_plus = _sampled_lyapunov(plus, p_op, budget, tag=0)
    v_minus = _sampled_lyapunov(minus, p_op, budget, tag=1)
    return prefactor * (v_plus - v_minus)


def controller_diagonal_fastpath(
    state: StateVector,
    q0_bits: str,
    alpha0: float,
    h0: PauliSum,
    mixer: PauliSum,
    gain: float,
) -> float:
    """Closed-form controller for diagonal drifts with the sum-X mixer.

    The single projector shift sits on a computational basis state, so
    its commutator with each X_j collapses to a local Y measurement:

        u = -K ( <i[H1,H0]> + alpha0 * sum_j (-1)^{b_j} <M_j Y_j> )

    with M_j projecting every other qubit onto the reference bits.  The
    <M_j Y_j> expectations reduce to 2*Im(conj(psi_a)*psi_b) over the two
    amplitudes adjacent to the reference bitstring on qubit j.
    """
    _check_positive("gain", gain)
    if not h0.is_diagonal:
        raise ValueError("fast path requires a diagonal drift (I/Z letters only)")
    n = state.n
    expected = {("".join("X" if q == j else "I" for q in range(n))) for j in range(n)}
    actual = dict(mixer.items())
    if set(actual) != expected or any(abs(c - 1.0) > 1e-12 for c in actual.values()):
        raise ValueError("fast path requires the standard mixer sum_j X_j")
    if len(q0_bits) != n or set(q0_bits) - {"0", "1"}:
        raise ValueError(f"bit string {q0_bits!r} does not address {n} qubits")
    comm_value = expectation(state, commutator_i(mixer, h0))
    idx0 = int(q0_bits, 2)
    amps = state.amps
    projector = 0.0
    for j in range(n):
        bit = 1 << (n - 1 - j)
        lo = idx0 & ~bit
        hi = idx0 | bit
        sign = -1.0 if (idx0 & bit) else 1.0
        projector += sign * 2.0 * (np.conj(amps[lo]) * amps[hi]).imag
    return -gain * (comm_value + alpha0 * projector)


# ---------------------------------------------------------------------------
# The layer loop.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeedbackConfig:
    """Knobs for one feedback run.

    dt and the per-channel gains set the layer unitaries and the control
    law; depth is the layer count.  backend selects the controller
    estimator; budget parameterizes it, and `exact` is the overlap
    route at the exact budget, which replaces any budget it is given.
    Every run starts from zero controls.
    The remaining fields are diagnostics: trotter_slices subdivides each
    first-order step (default one slice per layer), and abort_on_increase
    cuts a run short the moment the Lyapunov value rises by more than the
    given amount (used by the time-step search).
    """

    dt: float
    gains: Tuple[float, ...]
    depth: int
    backend: str = "exact"
    budget: ShotBudget = EXACT
    trotter_slices: int = 1
    abort_on_increase: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "gains", tuple(float(g) for g in self.gains))
        _check_positive("dt", self.dt)
        if not self.gains or not all(0 < g < math.inf for g in self.gains):
            raise ValueError("gains must be a non-empty list of positive finite reals")
        _check_count("depth", self.depth)
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.backend == "exact":
            object.__setattr__(self, "budget", EXACT)
        _check_count("trotter_slices", self.trotter_slices)
        if self.abort_on_increase is not None and math.isnan(self.abort_on_increase):
            raise ValueError("abort_on_increase must be a number or None, got nan")


@dataclass
class RunTrace:
    """Per-layer history of one run.

    Row k holds the controls applied in layer k and the diagnostics of
    the state after layer k; `final_controls` is the next control vector
    the loop computed but never applied.  Diagnostics (V, energy,
    fidelities) are always evaluated exactly; only the controller
    estimates carry shot noise.
    """

    layers: np.ndarray
    controls: np.ndarray
    lyapunov: np.ndarray
    energy: np.ndarray
    fidelities: np.ndarray
    final_state: StateVector
    final_controls: Tuple[float, ...]
    initial_lyapunov: float
    initial_energy: float
    aborted_layer: Optional[int] = None

    @property
    def depth(self) -> int:
        return len(self.layers)

    def max_lyapunov_increase(self) -> float:
        """Largest single-layer rise of V, including the first layer."""
        values = np.concatenate(([self.initial_lyapunov], self.lyapunov))
        return float(np.max(np.diff(values)))

    def max_abs_controls(self) -> np.ndarray:
        """Per-layer max |u_k^(q)| over channels, the convergence monitor."""
        return np.max(np.abs(self.controls), axis=1)


def _control_bound(gain: float, comm: PauliSum, h_ctrl: PauliSum, p_op: ShiftedOperator) -> float:
    """A priori bound on |u|: K*(2*|comm|_1 + 2*sum_j alpha_j*|H_q|_1)."""
    return gain * (2.0 * one_norm(comm) + 2.0 * sum(p_op.alphas) * one_norm(h_ctrl))


def run_fqae(
    h0: PauliSum,
    h_ctrls: Sequence[PauliSum],
    p_op: ShiftedOperator,
    psi0: StateVector,
    config: FeedbackConfig,
    track_states: Sequence[StateVector] = (),
) -> RunTrace:
    """Grow the layered circuit, feeding each layer's controls back from
    the previous state.

    All channels of layer k+1 are evaluated from the same |psi_k|
    (simultaneous update), then applied in channel order after the drift
    step.  Failed drift or control steps, backend failures and controls
    beyond the a priori bound raise FeedbackRunError with the partial
    trace of the completed layers attached.
    """
    if p_op.h0 != h0:
        raise ValueError("p_op was built over a different drift Hamiltonian")
    r = len(h_ctrls)
    if r == 0 or len(config.gains) != r:
        raise ValueError(f"{r} control channels need exactly {r} gains")
    for h in h_ctrls:
        if h.n != h0.n or not h.is_hermitian:
            raise ValueError("control Hamiltonians must be hermitian on the same qubits")
    if psi0.n != h0.n:
        raise ValueError("initial state qubit count does not match the drift")
    if any(ref.n != h0.n for ref in track_states):
        raise ValueError("tracked state qubit count does not match the drift")

    backend = config.backend
    budget = config.budget
    slices = config.trotter_slices
    drift_plan = TrotterPlan.from_sum(h0, config.dt)
    ctrl_plans = [TrotterPlan.from_sum(h, config.dt) for h in h_ctrls]
    overlap = backend in ("exact", "overlap_hadamard")
    # The a priori controller bound is a theorem only when the computed
    # value is the exact law; sampled gradients obey looser constants.
    exact_law = budget.exact and backend != "grad_fd"
    comms = [commutator_i(h, h0) for h in h_ctrls] if overlap or exact_law else None
    tables = [TermTable(c) for c in comms] if overlap else None
    bounds = None
    if exact_law:
        bounds = [_control_bound(config.gains[q], comms[q], h_ctrls[q], p_op) for q in range(r)]

    # The backends are looked up by name at call time so that wrappers
    # installed on this module's attributes see every call.
    def bind(q: int) -> Callable[[StateVector, ShotBudget], float]:
        h_ctrl, gain = h_ctrls[q], config.gains[q]
        if overlap:
            table = tables[q]
            return lambda state, b: _controller_from_pieces(state, table, h_ctrl, p_op, gain, b)
        if backend == "grad_fd":
            return lambda state, b: controller_grad_fd(
                state, h_ctrl, p_op, gain, config.dt, budget=b, slices=slices
            )
        return lambda state, b: controller_grad_psr(state, h_ctrl, p_op, gain, config.dt, budget=b)

    controllers = [bind(q) for q in range(r)]
    # A sampled run keys its draws a block of layers at a time; a layer
    # key must be one entropy word.
    blocked = not budget.exact and config.depth < 1 << 32
    keyed = budget

    controls = (0.0,) * r
    state = psi0.copy()
    initial_v = lyapunov_value(state, p_op)
    initial_e = expectation(state, h0)

    applied: List[Tuple[float, ...]] = []
    v_rows: List[float] = []
    e_rows: List[float] = []
    f_rows: List[List[float]] = []
    aborted_layer: Optional[int] = None

    def _trace(final_controls: Tuple[float, ...]) -> RunTrace:
        rows = len(applied)
        return RunTrace(
            layers=np.arange(1, rows + 1),
            controls=np.array(applied, dtype=float).reshape(rows, r),
            lyapunov=np.array(v_rows, dtype=float),
            energy=np.array(e_rows, dtype=float),
            fidelities=np.array(f_rows, dtype=float).reshape(rows, len(track_states)),
            final_state=state,
            final_controls=final_controls,
            initial_lyapunov=initial_v,
            initial_energy=initial_e,
            aborted_layer=aborted_layer,
        )

    prev_v = initial_v
    for k in range(1, config.depth + 1):
        # A failed step leaves the state of the last completed layer.
        try:
            stepped = drift_plan.apply(state, slices=slices)
            for q in range(r):
                if controls[q] != 0.0:
                    stepped = ctrl_plans[q].apply(stepped, scale=controls[q], slices=slices)
        except Exception as exc:
            raise FeedbackRunError(f"layer step failed at layer {k}: {exc}", _trace(controls)) from exc
        state = stepped

        applied.append(controls)
        v_k = lyapunov_value(state, p_op)
        v_rows.append(v_k)
        e_rows.append(expectation(state, h0))
        f_rows.append([fidelity(ref, state) for ref in track_states])

        if config.abort_on_increase is not None and v_k - prev_v > config.abort_on_increase:
            aborted_layer = k
            return _trace(controls)
        prev_v = v_k

        if blocked and (k - 1) % _KEY_BLOCK_LAYERS == 0:
            layers = min(_KEY_BLOCK_LAYERS, config.depth - k + 1)
            keyed = budget._keyed(KeyTable(budget, k, layers, r))
        try:
            nxt = []
            for q in range(r):
                u = controllers[q](state, keyed.split(k, q))
                if not np.isfinite(u):
                    raise FloatingPointError(f"controller for channel {q} is not finite")
                nxt.append(float(u))
        except Exception as exc:
            raise FeedbackRunError(f"backend failed at layer {k}: {exc}", _trace(controls)) from exc

        if bounds is not None:
            for q in range(r):
                if abs(nxt[q]) > bounds[q] + CONTROL_BOUND_SLACK:
                    raise FeedbackRunError(
                        f"controller bound violated at layer {k}, channel {q}: "
                        f"|{nxt[q]}| > {bounds[q]}",
                        _trace(controls),
                    )
        controls = tuple(nxt)

    return _trace(controls)


def run_falqon(
    h0: PauliSum,
    h_ctrls: Sequence[PauliSum],
    psi0: StateVector,
    config: FeedbackConfig,
    track_states: Sequence[StateVector] = (),
) -> RunTrace:
    """Ground-state special case: no shifts."""
    return run_fqae(h0, h_ctrls, ShiftedOperator(h0, ()), psi0, config, track_states)


@dataclass
class DeflationStage:
    """One stage of the upward sweep; its converged state is `trace.final_state`."""

    energy: float
    trace: RunTrace
    warning: Optional[str] = None


def deflate_spectrum(
    h0: PauliSum,
    h_ctrls: Sequence[PauliSum],
    stages: Sequence[Tuple[StateVector, FeedbackConfig]],
    alphas: Sequence[float],
    reference: Sequence[Tuple[float, StateVector]] = (),
    track_states: Sequence[StateVector] = (),
) -> List[DeflationStage]:
    """Climb the spectrum: run, pin the result under a projector shift, repeat.

    `stages` holds one (initial state, feedback config) pair per stage.
    Stage 0 runs with no shifts (plain ground-state descent); stage s
    shifts the final state of each earlier stage j by alphas[j], so
    there is one alpha fewer than stages.  When `reference` eigenpairs
    are supplied, a stage whose final state has max fidelity below
    `DEFLATION_WARN_FIDELITY` against all of them gets a warning string
    embedded in its result.  Stages are returned in ascending energy
    order.
    """
    if not stages or len(alphas) != len(stages) - 1:
        raise ValueError(
            f"deflation needs at least one stage and one alpha fewer than stages, "
            f"got {len(stages)} stages and {len(alphas)} alphas"
        )
    results: List[DeflationStage] = []
    found: List[Shift] = []
    for s, (start, cfg) in enumerate(stages):
        trace = run_fqae(h0, h_ctrls, ShiftedOperator(h0, found), start, cfg, track_states)
        energy = expectation(trace.final_state, h0)
        warning = None
        if reference:
            best = max(fidelity(vec, trace.final_state) for _, vec in reference)
            if best < DEFLATION_WARN_FIDELITY:
                warning = (
                    f"stage {s} max reference fidelity {best:.3f} "
                    f"below threshold {DEFLATION_WARN_FIDELITY}"
                )
        results.append(DeflationStage(energy, trace, warning))
        if s < len(alphas):
            found.append(Shift(alphas[s], trace.final_state, energy))
    return sorted(results, key=lambda st: st.energy)


def tune_time_step(
    run_at: Callable[[float], Sequence[RunTrace]],
    candidates: Sequence[float],
    tolerance: float = 1e-9,
) -> Tuple[float, Sequence[RunTrace]]:
    """Largest candidate dt whose runs all keep the Lyapunov value descending.

    `run_at(dt)` executes every instance at that time step (abort-early
    configs keep rejected candidates cheap) and returns their traces;
    a candidate is accepted when no trace rose by more than `tolerance`
    at any layer and none aborted.  A candidate whose `run_at` raises
    `FeedbackRunError` is rejected too.  Candidates are tried in
    descending order; the first acceptance wins.  When none is accepted,
    the RuntimeError names the last such failure, if any.
    """
    failure = ""
    for dt in sorted(candidates, reverse=True):
        try:
            traces = run_at(dt)
        except FeedbackRunError as exc:
            failure = f"; the last failed run, at dt = {dt:g}: {exc}"
            continue
        ok = all(
            t.aborted_layer is None and t.max_lyapunov_increase() <= tolerance for t in traces
        )
        if ok:
            return dt, traces
    raise RuntimeError("no candidate time step satisfied the descent condition" + failure)
