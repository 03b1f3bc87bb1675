"""Spans and counters around the package's calls, installed from outside.

The package binds names at import (`from .states import expectation`),
so a wrapper has to replace every module attribute that holds the
original function, not only the defining one.  `Patches.everywhere`
does that and raises when it finds no binding, so a renamed function
is an error instead of a silent zero.

A span's self time is its duration minus the time of the wrapped calls
it made.  Calls made directly by `run_fqae` are also attributed to one
of the four phases of a layer (drift, controls, diagnostics,
controller); a phase's time is the summed duration of those calls, and
`feedback.run_fqae.self_s` is the run span minus its phase time: the
per-run set-up plus the loop's own bookkeeping.  Counts are exact and
repeat from pass to pass; `selfcheck` compares them with what the
recorded runs imply analytically.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

MODULES = ("feedbackq", "feedbackq.pauli", "feedbackq.states", "feedbackq.sampling",
           "feedbackq.models", "feedbackq.feedback", "feedbackq.cli")
PHASES = ("drift", "controls", "diagnostics", "controller")
BYTES_PER_AMP_ACTION = 32  # one complex128 amplitude read and one written
ACTION_SPANS = ("states.trotter_apply", "states.expectation", "states.pauli_expectation",
                "states.pauli_matrix_element", "states.apply_pauli", "states.apply_pauli_exp",
                "states.apply_sum_trotter")


class Patches:
    """Replaced attributes and how to put them back."""

    def __init__(self):
        self._undo = []

    def everywhere(self, orig, wrapper):
        hits = 0
        for mod in map(importlib.import_module, MODULES):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))
                    hits += 1
        if not hits:
            raise RuntimeError(f"no module binds {getattr(orig, '__qualname__', orig)!r}")

    def method(self, cls, name, wrapper):
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def restore(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)


class LayerCounter:
    """Adds up the layers of every run_fqae call, aborted layers included.

    It wraps only run_fqae, a handful of calls per operation, so it stays
    installed while the end-to-end metrics are measured.
    """

    def __init__(self):
        self.layers = 0
        self._patches = Patches()

    def install(self):
        from feedbackq import feedback

        orig = feedback.run_fqae
        error = feedback.FeedbackRunError

        def run_fqae(*args, **kwargs):
            try:
                trace = orig(*args, **kwargs)
            except error as exc:
                self.layers += exc.partial.depth
                raise
            self.layers += trace.depth
            return trace

        self._patches.everywhere(orig, run_fqae)

    def restore(self):
        self._patches.restore()


class RunRecord:
    """Inputs and outcome of one traced run_fqae call."""

    def __init__(self, args, kwargs):
        bound = dict(zip(("h0", "h_ctrls", "p_op", "psi0", "config", "track_states"), args))
        bound.update(kwargs)
        self.h0 = bound["h0"]
        self.h_ctrls = list(bound["h_ctrls"])
        self.p_op = bound["p_op"]
        self.config = bound["config"]
        self.tracked = len(bound.get("track_states", ()))
        self._drift_factors = tuple((ops, c.real) for ops, c in self.h0.items())
        self._plan_phase = {}
        self.phase_time = dict.fromkeys(PHASES, 0.0)
        self.phase_calls = dict.fromkeys(PHASES, 0)
        self.actions = 0
        self.depth = 0
        self.aborted = 0
        self.nonzero = [0] * len(self.h_ctrls)
        self.failed = False

    def plan_phase(self, plan):
        phase = self._plan_phase.get(id(plan))
        if phase is None:
            drift = plan.factors == self._drift_factors and plan.dt == self.config.dt
            phase = self._plan_phase[id(plan)] = "drift" if drift else "controls"
        return phase

    def finish(self, trace):
        self.depth = trace.depth
        self.aborted = int(trace.aborted_layer is not None)
        self.nonzero = [int(np.count_nonzero(trace.controls[:, q])) for q in range(len(self.h_ctrls))]

    def expected_actions(self, commutator_i):
        """Pauli-string applications the run's inputs imply, term by term."""
        cfg = self.config
        slices = cfg.trotter_slices
        ident = "I" * self.h0.n
        m0 = len(self.h0)
        measured = m0 - (self.h0.coefficient(ident) != 0)
        shifts = len(self.p_op.shifts)
        total = self.depth * m0 * slices + 2 * m0 * (self.depth + 1)
        for q, h in enumerate(self.h_ctrls):
            total += self.nonzero[q] * len(h) * slices
            if cfg.backend in ("exact", "overlap_hadamard"):
                per_call = len(commutator_i(h, self.h0)) + shifts * (2 * len(h) + 2)
            elif cfg.backend == "grad_fd":
                per_call = 2 * len(h) * slices + 2 * measured
            else:
                per_call = 2 * (len(h) - (h.coefficient(ident) != 0)) + 2 * measured
            total += (self.depth - self.aborted) * per_call
        return total


class _Frame:
    __slots__ = ("child", "run")

    def __init__(self, run=None):
        self.child = 0.0
        self.run = run


def _trotter_actions(plan, state, scale=1.0, slices=1):
    return len(plan.factors) * slices, state.n


def _sum_trotter_actions(state, h, t, slices=1):
    return len(h) * slices, state.n


def _one_action(state, *rest):
    return 1, state.n


def _expectation_actions(state, h):
    return len(h), state.n


class Tracer:
    """Installs spans on the package and aggregates them per pass."""

    def __init__(self):
        self._patches = Patches()
        self._stack = []
        self._run = None
        self._states_depth = 0
        self.reset()

    def reset(self):
        self.stats = defaultdict(lambda: [0, 0.0])
        self.counts = defaultdict(int)
        self.runs = []

    def snapshot(self):
        snap = {"stats": {k: tuple(v) for k, v in self.stats.items()},
                "counts": dict(self.counts), "runs": self.runs}
        self.reset()
        return snap

    def _span(self, name, fn, phase=None, actions=None, on_call=None):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame()
            stack.append(frame)
            if actions is not None:
                self._states_depth += 1
            if on_call is not None:
                on_call(args, kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stat = self.stats[name]
                stat[0] += 1
                stat[1] += elapsed - frame.child
                if parent is not None:
                    parent.child += elapsed
                    if phase is not None and parent.run is not None:
                        run = parent.run
                        which = phase if isinstance(phase, str) else phase(run, args)
                        run.phase_time[which] += elapsed
                        run.phase_calls[which] += 1
                if actions is not None:
                    self._states_depth -= 1
                    if self._states_depth == 0:
                        count, n = actions(*args, **kwargs)
                        self.counts["states.pauli_actions"] += count
                        self.counts["states.amp_actions"] += count << n
                        if self._run is not None:
                            self._run.actions += count

        return wrapper

    def _run_span(self, fn, error):
        stack = self._stack
        clock = time.perf_counter

        def run_fqae(*args, **kwargs):
            rec = RunRecord(args, kwargs)
            parent = stack[-1] if stack else None
            frame = _Frame(rec)
            stack.append(frame)
            outer, self._run = self._run, rec
            t0 = clock()
            try:
                trace = fn(*args, **kwargs)
            except error as exc:
                rec.failed = True
                rec.finish(exc.partial)
                raise
            except Exception:
                rec.failed = True
                raise
            else:
                rec.finish(trace)
                return trace
            finally:
                elapsed = clock() - t0
                stack.pop()
                self._run = outer
                if parent is not None:
                    parent.child += elapsed
                phase_total = sum(rec.phase_time.values())
                stat = self.stats["feedback.run_fqae"]
                stat[0] += 1
                stat[1] += elapsed - phase_total
                self.stats["feedback.run_fqae.span"][1] += elapsed
                for p in PHASES:
                    stat = self.stats["feedback." + p]
                    stat[0] += rec.phase_calls[p]
                    stat[1] += rec.phase_time[p]
                split = self.stats["feedback.controller." + rec.config.backend]
                split[0] += rec.phase_calls["controller"]
                split[1] += rec.phase_time["controller"]
                self.counts["feedback.layers"] += rec.depth
                self.counts["feedback.run_errors"] += rec.failed
                self.runs.append(rec)

        return run_fqae

    def _tune(self, fn):
        def tune_time_step(run_at, candidates, *args, **kwargs):
            seen = []

            def counted(dt):
                traces = run_at(dt)
                seen.extend(traces)
                return traces

            accepted = ()
            try:
                dt, accepted = fn(counted, candidates, *args, **kwargs)
                return dt, accepted
            finally:
                self.counts["feedback.tune.runs"] += len(seen)
                self.counts["feedback.tune.aborted_runs"] += sum(
                    t.aborted_layer is not None for t in seen
                )
                self.counts["feedback.tune.layers_run"] += sum(t.depth for t in seen)
                self.counts["feedback.tune.useful_layers"] += sum(t.depth for t in accepted)

        return tune_time_step

    def _cli_main(self, fn):
        def main(*args, **kwargs):
            self.counts["cli.invocations"] += 1
            code = 1
            try:
                code = fn(*args, **kwargs)
                return code
            finally:
                self.counts["cli.exit_nonzero"] += code != 0

        return main

    def _count_shots(self, args, kwargs):
        budget = kwargs["budget"] if "budget" in kwargs else args[-1]
        if budget.shots is not None:
            self.counts["sampling.shots"] += budget.shots

    def install(self):
        from feedbackq import cli, feedback, models, pauli, sampling, states

        p = self._patches
        span = self._span

        def plain(name, fn, **kw):
            p.everywhere(fn, span(name, fn, **kw))

        def plan_phase(run, args):
            return run.plan_phase(args[0])

        plain("states.expectation", states.expectation, phase="diagnostics",
              actions=_expectation_actions)
        plain("states.fidelity", states.fidelity, phase="diagnostics")
        plain("states.pauli_expectation", states.pauli_expectation, actions=_one_action)
        plain("states.pauli_matrix_element", states.pauli_matrix_element, actions=_one_action)
        plain("states.apply_pauli", states.apply_pauli, actions=_one_action)
        plain("states.apply_pauli_exp", states.apply_pauli_exp, actions=_one_action)
        plain("states.apply_sum_trotter", states.apply_sum_trotter, actions=_sum_trotter_actions)
        plain("states.reference_spectrum", states.reference_spectrum)
        plain("states.dense_matrix", states.dense_matrix)
        plain("states.diagonal_values", states.diagonal_values)
        plan = states.TrotterPlan
        p.method(plan, "apply", span("states.trotter_apply", plan.__dict__["apply"],
                                     phase=plan_phase, actions=_trotter_actions))
        p.method(plan, "from_sum",
                 classmethod(span("states.trotter_plan", plan.__dict__["from_sum"].__func__)))

        # Ground truth for the pauli_actions count derived from call arguments.
        action = states._pauli_action

        def counted_action(*args):
            self.counts["states.pauli_action_calls"] += 1
            return action(*args)

        p.everywhere(action, counted_action)

        plain("feedback.lyapunov_value", feedback.lyapunov_value, phase="diagnostics")
        plain("feedback.controller_from_pieces", feedback._controller_from_pieces,
              phase="controller")
        plain("feedback.controller_grad_fd", feedback.controller_grad_fd, phase="controller")
        plain("feedback.controller_grad_psr", feedback.controller_grad_psr, phase="controller")
        plain("feedback.run_falqon", feedback.run_falqon)
        plain("feedback.deflate_spectrum", feedback.deflate_spectrum)
        p.everywhere(feedback.run_fqae, self._run_span(feedback.run_fqae, feedback.FeedbackRunError))
        tune = feedback.tune_time_step
        p.everywhere(tune, span("feedback.tune_time_step", self._tune(tune)))

        for fn in (sampling.sample_pauli_expectation, sampling.sample_hadamard_test,
                   sampling.sample_zero_fraction):
            plain("sampling.estimates", fn, on_call=self._count_shots)
        budget = sampling.ShotBudget
        p.method(budget, "split", span("sampling.split", budget.__dict__["split"]))
        p.method(budget, "rng", span("sampling.rng", budget.__dict__["rng"]))
        plain("sampling.derive_seed", sampling.derive_seed)
        plain("sampling.make_rng", sampling.make_rng)

        plain("pauli.commutator_i", pauli.commutator_i)
        plain("pauli.product", pauli.product)
        plain("pauli.one_norm", pauli.one_norm)

        for fn in (models.build_ising, models.build_mfi, models.build_h2):
            plain("models.build", fn)
        for fn in (models.random_ising, models.random_mfi):
            plain("models.random_instance", fn)
        plain("models.standard_controls", models.standard_controls)

        main = cli.main
        p.everywhere(main, span("cli.main", self._cli_main(main)))
        plain("cli.write_trace_csv", cli.write_trace_csv)

    def restore(self):
        self._patches.restore()


def _calls(snap, name):
    return snap["stats"].get(name, (0, 0.0))[0]


def _self_s(snap, name):
    return snap["stats"].get(name, (0, 0.0))[1]


def selfcheck(snap, commutator_i):
    """Counts a bypassed or double-counted wrapper would get wrong.

    Returns a list of failure messages; empty when every count matches
    what the recorded runs imply.
    """
    runs = snap["runs"]
    counts = snap["counts"]
    problems = []

    def expect(label, got, want):
        if got != want:
            problems.append(f"{label}: traced {got}, expected {want}")

    expect("feedback.drift.calls == layers", _calls(snap, "feedback.drift"),
           counts.get("feedback.layers", 0))
    expect("feedback.controls.calls == nonzero applied controls",
           _calls(snap, "feedback.controls"), sum(sum(r.nonzero) for r in runs))
    expect("feedback.controller.calls == controller layers x channels",
           _calls(snap, "feedback.controller"),
           sum((r.depth - r.aborted) * len(r.h_ctrls) for r in runs))
    expect("feedback.diagnostics.calls == layers x (2 + tracked) + 2 per run",
           _calls(snap, "feedback.diagnostics"),
           sum(r.depth * (2 + r.tracked) + 2 for r in runs))
    expect("states.pauli_actions == _pauli_action calls",
           counts.get("states.pauli_actions", 0), counts.get("states.pauli_action_calls", 0))
    if not any(r.failed for r in runs):
        expect("pauli actions inside run_fqae == term formula",
               sum(r.actions for r in runs),
               sum(r.expected_actions(commutator_i) for r in runs))
    span = _self_s(snap, "feedback.run_fqae.span")
    parts = _self_s(snap, "feedback.run_fqae") + sum(
        _self_s(snap, "feedback." + p) for p in PHASES
    )
    if abs(span - parts) > 1e-9 * max(span, 1.0):
        problems.append(f"phases + run_fqae self ({parts}) != run_fqae span ({span})")
    return problems


def work_counts(snap):
    """Everything in a snapshot that must repeat exactly from pass to pass."""
    out = {name: calls for name, (calls, _) in snap["stats"].items()}
    out.update(snap["counts"])
    # The CLI's JSON outputs carry a wall time, so their size varies by a digit.
    out.pop("cli.output_bytes", None)
    return out


def merge(a, b):
    """Sum two snapshots (set-up and one pass) into one."""
    stats = defaultdict(lambda: [0, 0.0])
    counts = defaultdict(int)
    for snap in (a, b):
        for name, (calls, secs) in snap["stats"].items():
            stats[name][0] += calls
            stats[name][1] += secs
        for name, value in snap["counts"].items():
            counts[name] += value
    return {"stats": {k: tuple(v) for k, v in stats.items()}, "counts": dict(counts),
            "runs": a["runs"] + b["runs"]}


CALLS_AND_TIME = (
    "feedback.drift", "feedback.controls", "feedback.diagnostics", "feedback.controller",
    "feedback.run_fqae",
    "states.trotter_apply", "states.expectation", "states.pauli_expectation",
    "states.pauli_matrix_element", "states.fidelity", "states.reference_spectrum",
    "sampling.estimates", "pauli.commutator_i", "models.build", "models.standard_controls",
)
CALLS_ONLY = (
    "feedback.controller.exact", "feedback.controller.overlap_hadamard",
    "feedback.controller.grad_psr", "feedback.controller.grad_fd",
    "sampling.split", "sampling.rng", "pauli.product", "cli.write_trace_csv",
)
COUNTS = (
    "feedback.layers", "feedback.run_errors", "feedback.tune.runs",
    "feedback.tune.aborted_runs", "feedback.tune.layers_run", "states.pauli_actions",
    "sampling.shots", "cli.invocations", "cli.exit_nonzero", "cli.output_bytes",
    "cli.sweep_point.failed",
)


def per_layer_metrics(snap, overhead_ratio):
    """The per-layer metrics BENCHMARK.json names, as (value, unit)."""
    out = {}
    for name in CALLS_AND_TIME:
        out[name + ".calls"] = (_calls(snap, name), "count")
        out[name + ".self_s"] = (_self_s(snap, name), "s")
    out["feedback.run_fqae.span_s"] = (_self_s(snap, "feedback.run_fqae.span"), "s")
    for name in CALLS_ONLY:
        out[name + ".calls"] = (_calls(snap, name), "count")
    counts = snap["counts"]
    for name in COUNTS:
        out[name] = (counts.get(name, 0), "B" if name.endswith("bytes") else "count")
    run_layers = counts.get("feedback.tune.layers_run", 0)
    out["feedback.tune.useful_layer_ratio"] = (
        counts.get("feedback.tune.useful_layers", 0) / run_layers if run_layers else 0.0, "ratio"
    )
    amps = counts.get("states.amp_actions", 0)
    out["states.bytes_computed"] = (amps * BYTES_PER_AMP_ACTION, "B")
    action_s = sum(_self_s(snap, name) for name in ACTION_SPANS)
    out["states.ns_per_amp_action"] = (action_s / amps * 1e9 if amps else 0.0, "ns")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


def detail(snap):
    """Every span as {name: [calls, self_s]}, for the trace file and log."""
    return {name: [calls, secs] for name, (calls, secs) in sorted(snap["stats"].items())}
