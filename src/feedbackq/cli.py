"""Command-line drivers for feedback-grown eigenstate preparation runs.

Four subcommands cover the experiment shapes the library supports:

``run``
    One feedback run (ground state or a projector-shifted excited-state
    target), emitting a per-layer CSV trace and a JSON summary.
``spectrum``
    Sequential deflation through the lowest ``count`` eigenstates, one
    trace per stage plus a spectrum summary.
``sweep``
    A family of runs along one axis (``R``, ``n`` or ``seed``) with a
    per-point aggregate row; points fail independently, and a sweep
    with a failed point exits 1 after writing its outputs.
``validate``
    Informational checks of the convergence assumptions for a config.

Configs are single JSON documents; each flag but ``--jobs`` sets one of
their fields as the document is read (`_load_config`).
Exit codes: 0 success, 1 runtime failure (partial trace flushed),
2 config rejection.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .feedback import (
    FeedbackConfig,
    FeedbackRunError,
    RunTrace,
    Shift,
    ShiftedOperator,
    alpha_from_bound,
    alpha_iterative,
    deflate_spectrum,
    run_fqae,
    tune_time_step,
)
from .models import (
    CONTROL_KINDS,
    H2Spec,
    IsingSpec,
    MfiSpec,
    RowNotTabulatedError,
    build_h2,
    build_ising,
    build_mfi,
    random_ising,
    random_mfi,
    standard_controls,
)
from .pauli import PauliSum, parse_sum
from .sampling import ShotBudget, derive_seed
from .states import (
    DEGENERACY_TOL,
    DENSE_QUBIT_LIMIT,
    StateVector,
    dense_eigh,
    fidelity,
    matrix_element_blocks,
    reference_spectrum,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

DEFAULT_OUTPUT = "runs/experiment"
DEFAULT_DT_LADDER = (
    0.05, 0.04, 0.03, 0.025, 0.02, 0.015, 0.012, 0.01, 0.009, 0.008,
    0.007, 0.006, 0.005, 0.004, 0.003, 0.002, 0.0015, 0.001,
)
ELEMENT_TOL = 1e-12


class ConfigError(ValueError):
    """A config document failed validation before any run started."""


# ---------------------------------------------------------------------------
# config parsing


def _load_json(path: Path) -> dict:
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"top-level JSON value in {path} must be an object")
    return doc


def _load_config(args) -> Tuple[dict, Path]:
    """The config document with each flag written into its field, and its directory.

    A flag edits a block only when that block is an object, so a
    malformed block fails as it would without the flag.
    """
    path = Path(args.config)
    doc = _load_json(path)
    edits = {"seed": args.seed, "output": args.out, "count": getattr(args, "count", None)}
    doc.update((key, value) for key, value in edits.items() if value is not None)
    sweep, feedback = doc.get("sweep"), doc.get("feedback")
    if getattr(args, "axis", None) is not None and isinstance(sweep, dict):
        sweep["axis"] = args.axis
    if (args.exact or args.shots is not None) and isinstance(feedback, dict):
        feedback["shots"] = None if args.exact else args.shots
    return doc, path.resolve().parent


# Keys a block may no longer set, with the reason a config error gives.
RETIRED = {
    "feedback": {
        "psr_literal": "grad_psr always uses the exact-law shift",
        "initial_controls": "every run starts from zero controls",
        "epsilon": "grad_fd steps by 1e-5 exact, 1e-3 sampled",
        "stop_control_threshold": "a run stops only at 'depth' or on 'abort_on_increase'",
        "stop_value_threshold": "a run stops only at 'depth' or on 'abort_on_increase'",
    },
    "model": {
        "low": "instances are drawn from [-2, 2]",
        "high": "instances are drawn from [-2, 2]",
        "file": "write the model block inline",
    },
}

_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", dict: "an object"}
_REQUIRED = object()


def _field(obj: dict, key: str, where: str, kind, default=_REQUIRED):
    """Read `obj[key]` of block `where` ("" at the top level) as `kind`.

    A missing or null field gives `default`, or a config error when the
    field has none.  See `_value` for the kinds.
    """
    name = f"{where}.{key}" if where else key
    value = obj.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"missing required field '{name}'")
        return default
    return _value(value, name, kind)


def _value(value, name: str, kind):
    """`value` as `kind`, or a config error naming the dotted key `name`.

    int takes a JSON integer or an integral float and float a finite
    number; neither takes a boolean or a string.  str takes a string,
    dict an object that sets none of the `RETIRED` keys of block `name`,
    and `[kind]` a list of `kind` values.
    """
    if isinstance(kind, list):
        if isinstance(value, list):
            return [_value(v, f"{name}[{i}]", kind[0]) for i, v in enumerate(value)]
    elif kind is dict:
        if isinstance(value, dict):
            for key, reason in RETIRED.get(name, {}).items():
                if key in value:
                    raise ConfigError(f"'{name}.{key}' is retired: {reason}")
            return value
    elif kind is str:
        if isinstance(value, str):
            return value
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind is int and (isinstance(value, int) or value.is_integer()):
            return int(value)
        # Compared exactly, so NaN, infinities and integers beyond the
        # float range all fail.
        if kind is float and abs(value) <= sys.float_info.max:
            return float(value)
    expected = "a list" if isinstance(kind, list) else _KIND_NAMES[kind]
    raise ConfigError(f"'{name}' must be {expected}, got {value!r}")


def _gains(obj: dict, where: str, default: Tuple[float, ...]) -> Tuple[float, ...]:
    """One gain per channel: a list of them, one number for every channel, or `default`."""
    kind = [float] if isinstance(obj.get("gains"), list) else float
    gains = _field(obj, "gains", where, kind, None)
    if gains is None:
        return default
    if isinstance(gains, float):
        return (gains,) * len(default)
    if len(gains) != len(default):
        raise ConfigError(f"{len(default)} control channels need exactly {len(default)} gains")
    return tuple(gains)


def parse_model(spec: dict, base_dir: Path) -> Tuple[PauliSum, dict]:
    """Build the drift Hamiltonian from the config's model block.

    Returns the operator together with a metadata dict echoed into
    summaries (family, size, instance seed where applicable).
    """
    family = _field(spec, "family", "model", str)
    try:
        if family == "ising":
            n = _field(spec, "n", "model", int)
            couplings = _field(spec, "couplings", "model", [[float]])
            fields = _field(spec, "fields", "model", [float])
            built = build_ising(IsingSpec(n, tuple(map(tuple, couplings)), tuple(fields)))
            return built, {"family": family, "n": n}
        if family == "ising_random":
            n = _field(spec, "n", "model", int)
            inst = _field(spec, "instance_seed", "model", int)
            built = build_ising(random_ising(n, inst))
            return built, {"family": family, "n": n, "instance_seed": inst}
        if family == "mfi":
            n = _field(spec, "n", "model", int)
            built = build_mfi(MfiSpec(n, *(_field(spec, k, "model", float) for k in "Jhg")))
            return built, {"family": family, "n": n}
        if family == "mfi_random":
            n = _field(spec, "n", "model", int, 12)
            inst = _field(spec, "instance_seed", "model", int)
            built = build_mfi(random_mfi(n, inst))
            return built, {"family": family, "n": n, "instance_seed": inst}
        if family == "h2":
            r_val = _field(spec, "R", "model", float)
            table = _field(spec, "table", "model", str, None)
            if table is not None:
                table = base_dir / table
                if not table.exists():
                    raise ConfigError(f"h2 coefficient table not found: {table}")
            built = build_h2(H2Spec.from_table(r_val, path=table))
            return built, {"family": family, "n": 2, "R": r_val}
        if family == "pauli":
            text = _field(spec, "terms", "model", str)
            built = parse_sum(text, n=_field(spec, "n", "model", int, None))
            return built, {"family": family, "n": built.n}
    except ConfigError:
        raise
    except (ValueError, LookupError, TypeError) as exc:
        raise ConfigError(f"invalid model spec: {exc}") from exc
    raise ConfigError(f"unknown model family '{family}'")


def parse_initial_state(spec: str, n: int) -> StateVector:
    """Accept 'plus' or a computational-basis bitstring like '01'."""
    if spec == "plus":
        return StateVector.plus(n)
    if len(spec) == n and set(spec) <= {"0", "1"}:
        return StateVector.basis(n, spec)
    raise ConfigError(f"initial state '{spec}' is neither 'plus' nor an {n}-bit string")


def parse_feedback(spec: dict, channels: int, seed: int) -> FeedbackConfig:
    shots = _field(spec, "shots", "feedback", int, None)
    try:
        budget = ShotBudget(shots, seed=derive_seed(seed, "shots"))
        return FeedbackConfig(
            dt=_field(spec, "dt", "feedback", float),
            gains=_gains(spec, "feedback", (1.0,) * channels),
            depth=_field(spec, "depth", "feedback", int),
            backend=_field(spec, "backend", "feedback", str, "exact"),
            budget=budget,
            trotter_slices=_field(spec, "trotter_slices", "feedback", int, 1),
            abort_on_increase=_field(spec, "abort_on_increase", "feedback", float, None),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid feedback settings: {exc}") from exc


def parse_controls(doc: dict, n: int) -> Tuple[List[PauliSum], str]:
    kind = _field(doc, "controls", "", str, "y_per_qubit")
    if kind not in CONTROL_KINDS:
        raise ConfigError(f"unknown control kind '{kind}' (choose from {CONTROL_KINDS})")
    return standard_controls(kind, n), kind


def resolve_alphas(
    doc: dict,
    h0: PauliSum,
    shifts: int,
    run_with_alphas: Optional[Callable[[Sequence[float]], RunTrace]] = None,
    reference: Sequence[Tuple[float, StateVector]] = (),
) -> List[float]:
    """Turn the config's alpha strategy into one value per projector shift.

    ``bound`` uses twice the drift one-norm for every shift, ``fixed``
    takes explicit values, and ``iterative`` doubles a shared starting
    value until the run stops collapsing onto a lower eigenstate; it
    needs `run_with_alphas`, so commands that pass none reject it.
    Every shift weight must be positive (``bound`` gives 0 for a drift
    without Pauli terms).
    """
    spec = _field(doc, "alpha", "", dict, {})
    strategy = _field(spec, "strategy", "alpha", str, "bound")
    if strategy == "bound":
        values = [alpha_from_bound(h0)] * shifts
    elif strategy == "fixed":
        values = _field(spec, "values", "alpha", [float])
        if len(values) != shifts:
            raise ConfigError(
                f"alpha strategy 'fixed' needs {shifts} values, one per projector shift"
            )
    elif strategy == "iterative":
        if run_with_alphas is None:
            raise ConfigError("alpha strategy 'iterative' is supported by run and sweep only")
        start = _field(spec, "start", "alpha", float, 1.0)
        if not start > 0:
            raise ConfigError(f"'alpha.start' must be positive, got {start}")

        def _run(alpha: float) -> RunTrace:
            return run_with_alphas([alpha] * shifts)

        def _fell_short(trace: RunTrace) -> bool:
            lower = [fidelity(reference[k][1], trace.final_state) for k in range(shifts)]
            return bool(lower and max(lower) > 0.5)

        final = alpha_iterative(_run, start, _fell_short)
        return [final] * shifts
    else:
        raise ConfigError(f"unknown alpha strategy '{strategy}'")
    if not all(v > 0 for v in values):
        raise ConfigError(f"alpha strategy '{strategy}' needs positive shift weights, got {values}")
    return values


# ---------------------------------------------------------------------------
# output files, each named `<prefix><suffix>` after the config's output prefix


def _output_prefix(doc: dict) -> Path:
    """The config's output prefix.  One that ends in a path separator names
    a directory, not a file prefix, and `Path` would drop the separator."""
    prefix = _field(doc, "output", "", str, DEFAULT_OUTPUT)
    if prefix.endswith(tuple(sep for sep in (os.sep, os.altsep) if sep)):
        raise ConfigError(f"output prefix '{prefix}' ends in a path separator; "
                          f"add a file name prefix, such as '{prefix}run'")
    return Path(prefix)


def _output(prefix: Path, suffix: str) -> Path:
    return prefix.parent / (prefix.name + suffix)


def _create_output_dir(prefix: Path) -> None:
    """Create the directory the outputs of `prefix` go to, before any run.

    A prefix no file can be written under is a config error, so it
    costs no run.
    """
    try:
        prefix.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create outputs at '{prefix}': {exc}") from exc


def _format(value: float) -> str:
    return "%.12g" % value


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_trace_csv(path: Path, trace: RunTrace, tracked: int) -> None:
    """Per-layer rows: layer, u_1..u_r, V, energy, fid_0..fid_{s-1}.

    The column set depends only on the channel count and the number of
    tracked eigenstates.
    """
    header = ["layer"] + [f"u_{q + 1}" for q in range(trace.controls.shape[1])] + ["V", "energy"]
    header += [f"fid_{j}" for j in range(tracked)]
    columns = (trace.controls, trace.lyapunov, trace.energy, trace.fidelities[:, :tracked])
    rows = zip(trace.layers, np.column_stack(columns))
    _write_csv(path, header, ([str(int(k))] + [_format(v) for v in row] for k, row in rows))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# experiment assembly shared by run/spectrum/validate


class Experiment:
    """Everything a subcommand needs, resolved from one config document."""

    def __init__(self, doc: dict, base_dir: Path) -> None:
        self.doc = doc
        self.seed = _field(doc, "seed", "", int, 0)
        self.h0, self.model_meta = parse_model(_field(doc, "model", "", dict), base_dir)
        self.n = self.h0.n
        self.controls, self.control_kind = parse_controls(doc, self.n)
        self.config = parse_feedback(_field(doc, "feedback", "", dict), len(self.controls), self.seed)
        self.target = _field(doc, "target", "", int, 0)
        if self.target < 0:
            raise ConfigError("'target' must be a non-negative eigenstate index")
        if self.target >= 2 ** self.n:
            raise ConfigError(f"'target' must be below 2**n = {2 ** self.n}, got {self.target}")
        self.psi0 = parse_initial_state(_field(doc, "initial_state", "", str, "plus"), self.n)
        self.output = _output_prefix(doc)

    def reference(self, count: int) -> List[Tuple[float, StateVector]]:
        try:
            return reference_spectrum(self.h0, count=count)
        except ValueError as exc:
            raise ConfigError(f"reference spectrum unavailable: {exc}") from exc

    def shifted_operator(self, alphas: Sequence[float], reference) -> ShiftedOperator:
        shifts = [
            Shift(alphas[k], reference[k][1], reference[k][0]) for k in range(len(alphas))
        ]
        return ShiftedOperator(self.h0, shifts)


def _run_target(
    exp: Experiment,
    reference,
    config: Optional[FeedbackConfig] = None,
    track: Optional[Sequence[StateVector]] = None,
) -> Tuple[List[float], RunTrace]:
    """Resolve the config's alpha strategy, then run toward the target.

    `config` replaces the experiment's feedback settings (the sweep's
    time-step search passes each candidate this way).  The trace tracks
    the fidelities of `track`, by default every reference state.
    """
    config = exp.config if config is None else config
    track = [pair[1] for pair in reference] if track is None else track

    def run(alphas: Sequence[float]) -> RunTrace:
        p_op = exp.shifted_operator(alphas, reference)
        return run_fqae(exp.h0, exp.controls, p_op, exp.psi0, config, track_states=track)

    # A ground-state run uses no shift, so it leaves the alpha block unread.
    alphas = resolve_alphas(exp.doc, exp.h0, exp.target, run, reference) if exp.target else []
    return alphas, run(alphas)


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args) -> int:
    exp = Experiment(*_load_config(args))
    reference = exp.reference(exp.target + 1)
    _create_output_dir(exp.output)
    trace_path = _output(exp.output, "_trace.csv")
    summary_path = _output(exp.output, "_summary.json")

    started = time.perf_counter()
    try:
        alphas, trace = _run_target(exp, reference)
        failure = None
    except FeedbackRunError as exc:
        trace, failure = exc.partial, exc
    wall = time.perf_counter() - started

    summary = {"layers_completed": int(trace.layers.size), "trace": str(trace_path)}
    if failure is None:
        summary.update({
            "model": exp.model_meta,
            "controls": exp.control_kind,
            "backend": exp.config.backend,
            "shots": exp.config.budget.shots,
            "seed": exp.seed,
            "target": exp.target,
            "alphas": list(map(float, alphas)),
            "aborted_layer": trace.aborted_layer,
            "final_energy": float(trace.energy[-1]),
            "final_lyapunov": float(trace.lyapunov[-1]),
            "final_fidelities": [float(f) for f in trace.fidelities[-1]],
            "final_controls": [float(u) for u in trace.final_controls],
            "wall_time_s": wall,
        })
    else:
        summary["error"] = str(failure)
    write_trace_csv(trace_path, trace, len(reference))
    _write_json(summary_path, summary)
    if failure is not None:
        print(f"run failed: {failure}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {trace_path} and {summary_path}")
    return EXIT_OK


def _stage_overrides(exp: Experiment, count: int) -> List[Tuple[StateVector, FeedbackConfig]]:
    """One (initial state, feedback config) pair per deflation stage.

    A field a stage leaves out keeps its top-level value.
    """
    stages = _field(exp.doc, "stages", "", [dict], None)
    if stages is None:
        return [(exp.psi0, exp.config)] * count
    if len(stages) != count:
        raise ConfigError(f"'stages' must be a list of {count} objects")

    cfg = exp.config
    pairs = []
    for s, entry in enumerate(stages):
        where = f"stages[{s}]"
        spec = _field(entry, "initial_state", where, str, None)
        psi0 = exp.psi0 if spec is None else parse_initial_state(spec, exp.n)
        changes = {
            "dt": _field(entry, "dt", where, float, cfg.dt),
            "depth": _field(entry, "depth", where, int, cfg.depth),
            "trotter_slices": _field(entry, "trotter_slices", where, int, cfg.trotter_slices),
            "gains": _gains(entry, where, cfg.gains),
        }
        try:
            pairs.append((psi0, replace(cfg, **changes)))
        except ValueError as exc:
            raise ConfigError(f"invalid stage override: {exc}") from exc
    return pairs


def cmd_spectrum(args) -> int:
    exp = Experiment(*_load_config(args))
    count = _field(exp.doc, "count", "", int, 1)
    if count < 1:
        raise ConfigError("'count' must be at least 1")
    if count > 2 ** exp.n:
        raise ConfigError(f"'count' must be at most 2**n = {2 ** exp.n}, got {count}")

    alphas = resolve_alphas(exp.doc, exp.h0, count - 1)
    reference = exp.reference(count)
    stage_settings = _stage_overrides(exp, count)
    track = [pair[1] for pair in reference]
    _create_output_dir(exp.output)

    started = time.perf_counter()
    try:
        stages = deflate_spectrum(
            exp.h0,
            exp.controls,
            stage_settings,
            alphas,
            reference=reference,
            track_states=track,
        )
    except FeedbackRunError as exc:
        write_trace_csv(_output(exp.output, "_stage_partial_trace.csv"), exc.partial, len(track))
        print(f"spectrum failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    wall = time.perf_counter() - started

    for idx, stage in enumerate(stages):
        write_trace_csv(_output(exp.output, f"_stage{idx}_trace.csv"), stage.trace, len(track))
    summary_path = _output(exp.output, "_spectrum.json")
    _write_json(
        summary_path,
        {
            "model": exp.model_meta,
            "controls": exp.control_kind,
            "count": count,
            "energies": [float(s.energy) for s in stages],
            "reference_energies": [float(e) for e, _ in reference],
            "alphas": [float(a) for a in alphas],
            "warnings": [s.warning for s in stages],
            "wall_time_s": wall,
        },
    )
    print(f"wrote {count} stage traces and {summary_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


# Sweep axes, each rewriting one model field, with the field and its type.
SWEEP_AXES = {"R": ("R", float), "n": ("n", int), "seed": ("instance_seed", int)}
SWEEP_COLUMNS = ["axis", "value", "instances", "dt", "mean_fidelity", "fidelity_se", "mean_energy"]


def _check_retired_keys(doc: dict, sweep: dict) -> None:
    """Accept a retired sweep key only where it repeats what the config sets."""
    feedback = doc.get("feedback") if isinstance(doc.get("feedback"), dict) else {}
    alpha = doc.get("alpha") if isinstance(doc.get("alpha"), dict) else {}
    gains = feedback.get("gains")
    gains = gains if isinstance(gains, list) else [1.0 if gains is None else gains]
    alphas = alpha.get("values", []) if alpha.get("strategy") == "fixed" else [None]
    shadowed = {  # retired key: (the config field it shadowed, that field's values)
        "alpha": ("alpha", alphas),
        "gain": ("feedback.gains", gains),
        "depth": ("feedback.depth", [feedback.get("depth")]),
    }
    for key, (field, values) in shadowed.items():
        if key in sweep and any(v != sweep[key] for v in values):
            raise ConfigError(
                f"'sweep.{key}' is retired and differs from the config; set '{field}' instead"
            )


def _sweep_payloads(doc: dict, base_dir: Path) -> List[dict]:
    """Validate the sweep block; one worker payload per point."""
    sweep = _field(doc, "sweep", "", dict, None)
    if sweep is None:
        raise ConfigError("sweep configs need a 'sweep' object")
    axis = _field(sweep, "axis", "sweep", str)
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis '{axis}' (choose from R, n, seed)")
    values = _field(sweep, "values", "sweep", [SWEEP_AXES[axis][1]])
    if not values:
        raise ConfigError("'sweep.values' must be a non-empty list")
    instances = _field(sweep, "instances", "sweep", int, 15)
    candidates = _field(sweep, "dt_candidates", "sweep", [float], list(DEFAULT_DT_LADDER))
    tolerance = _field(sweep, "monotone_tolerance", "sweep", float, 1e-6)
    if instances < 1 or not candidates:
        raise ConfigError("'sweep.instances' and 'sweep.dt_candidates' must not be empty")
    _check_retired_keys(doc, sweep)
    return [
        {"doc": doc, "axis": axis, "value": v, "base_dir": str(base_dir), "instances": instances,
         "dt_candidates": candidates, "tolerance": tolerance}
        for v in values
    ]


def _point_experiments(payload: dict) -> List[Experiment]:
    """The experiments of one sweep point.

    An ``n`` point is ``sweep.instances`` random instances of that size;
    every other point is the config with one model field replaced.
    """
    doc, axis, value = payload["doc"], payload["axis"], payload["value"]
    model = dict(_field(doc, "model", "", dict), **{SWEEP_AXES[axis][0]: value})
    models = [model]
    if axis == "n":
        seed = _field(doc, "seed", "", int, 0)
        models = [
            dict(model, instance_seed=derive_seed(seed, "sweep", value, i))
            for i in range(payload["instances"])
        ]
    return [Experiment(dict(doc, model=m), Path(payload["base_dir"])) for m in models]


def _sweep_point(payload: dict) -> dict:
    """Run one sweep point in a worker process.

    A config error or a runtime failure (a failed run, time-step search
    or alpha search) becomes a NaN row with its message; any other
    exception is a bug and propagates.  The ``n`` axis picks the largest
    ``sweep.dt_candidates`` entry at which every instance keeps V
    descending; the other axes run once at the config's dt.
    """
    axis = payload["axis"]
    value = payload["value"]
    try:
        experiments = _point_experiments(payload)
        references = [exp.reference(exp.target + 1) for exp in experiments]
        tolerance = payload["tolerance"]

        def run_at(dt: Optional[float] = None) -> List[RunTrace]:
            traces = []
            for exp, ref in zip(experiments, references):
                config = exp.config
                if dt is not None:
                    config = replace(config, dt=dt, abort_on_increase=tolerance)
                traces.append(_run_target(exp, ref, config, [ref[exp.target][1]])[1])
            return traces

        if axis == "n":
            dt, traces = tune_time_step(run_at, payload["dt_candidates"], tolerance=tolerance)
        else:
            dt, traces = experiments[0].config.dt, run_at()
        fids = np.array([t.fidelities[-1, 0] for t in traces])
        energies = np.array([t.energy[-1] for t in traces])
        se = float(fids.std(ddof=1) / math.sqrt(len(fids))) if len(fids) > 1 else 0.0
        values = (axis, value, len(traces), dt, float(fids.mean()), se, float(energies.mean()))
        return dict(zip(SWEEP_COLUMNS, values))
    except (ConfigError, RuntimeError) as exc:  # a failed point must not sink the sweep
        row = dict.fromkeys(SWEEP_COLUMNS, float("nan"))
        row.update(axis=axis, value=value, instances=0, error=str(exc))
        return row


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    doc, base_dir = _load_config(args)
    payloads = _sweep_payloads(doc, base_dir)
    axis = payloads[0]["axis"]
    # Build the first point up front so a broken config exits 2 instead
    # of producing a CSV of NaN rows.
    try:
        _point_experiments(payloads[0])
    except ConfigError as exc:
        # The first R row may simply be missing from the table;
        # every other failure is R-independent and rejects the config.
        if axis != "R" or not isinstance(exc.__cause__, RowNotTabulatedError):
            raise

    out = _output_prefix(doc)
    _create_output_dir(out)
    started = time.perf_counter()
    # The pool starts every worker at once, so it never gets more than points.
    workers = min(args.jobs, len(payloads))
    if workers > 1:
        # Imported here: the pool loads multiprocessing, which a serial
        # sweep and every other subcommand never need.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, payloads))
    else:
        rows = [_sweep_point(p) for p in payloads]
    wall = time.perf_counter() - started

    csv_path = _output(out, "_sweep.csv")
    _write_csv(
        csv_path,
        SWEEP_COLUMNS,
        ([_format(row[c]) if isinstance(row[c], float) else str(row[c]) for c in SWEEP_COLUMNS]
         for row in rows),
    )
    failures = [row for row in rows if "error" in row]
    for row in failures:
        print(f"point {row['value']} failed: {row['error']}", file=sys.stderr)
    _write_json(
        _output(out, "_sweep.json"),
        {
            "axis": axis,
            "rows": rows,
            "wall_time_s": wall,
            "failed_points": len(failures),
        },
    )
    print(f"wrote {csv_path} ({len(rows)} points, {len(failures)} failed)")
    return EXIT_RUNTIME if failures else EXIT_OK


# ---------------------------------------------------------------------------
# validate


def _gap_clashes(eigenvalues: np.ndarray) -> int:
    """How many sorted pairwise eigenvalue differences coincide with the next one."""
    diffs = np.sort(np.concatenate([eigenvalues[i + 1:] - e for i, e in enumerate(eigenvalues)]))
    return int(np.sum(np.diff(diffs) < DEGENERACY_TOL)) if len(diffs) > 1 else 0


def cmd_validate(args) -> int:
    exp = Experiment(*_load_config(args))
    if exp.n > DENSE_QUBIT_LIMIT:
        raise ConfigError(f"validate needs a dense spectrum; {exp.n} qubits exceeds the limit")
    target = exp.target
    alphas = resolve_alphas(exp.doc, exp.h0, target) if target else []
    _create_output_dir(exp.output)

    eigenvalues, vectors = dense_eigh(exp.h0)

    gap_clashes = _gap_clashes(eigenvalues)
    assumption1 = gap_clashes == 0

    channel_reports = []
    for idx, h_ctrl in enumerate(exp.controls):
        zero_pairs = 0
        for start, block in matrix_element_blocks(h_ctrl, vectors):
            zeros = np.abs(block) <= ELEMENT_TOL
            cols = np.arange(block.shape[1])
            zeros[start + cols, cols] = False  # the block's diagonal entries
            zero_pairs += int(np.count_nonzero(zeros))
        channel_reports.append(
            {
                "channel": idx + 1,
                "fully_connected": zero_pairs == 0,
                "zero_offdiagonal_pairs": zero_pairs // 2,
            }
        )
    assumption2 = all(c["fully_connected"] for c in channel_reports)

    # Each shifted state is a drift eigenvector, so P is diagonal in the
    # drift eigenbasis: its spectrum is the drift's with alpha_k added to E_k.
    p_eigenvalues = eigenvalues.copy()
    p_eigenvalues[:target] += alphas
    p_eigenvalues.sort()
    min_gap = float(np.min(np.diff(p_eigenvalues))) if len(p_eigenvalues) > 1 else math.inf
    assumption3 = min_gap > DEGENERACY_TOL

    sufficiency = []
    for k, alpha in enumerate(alphas):
        needed = float(eigenvalues[target] - eigenvalues[k])
        sufficiency.append(
            {
                "shift": k,
                "alpha": float(alpha),
                "required_gap": needed,
                "sufficient": bool(alpha > needed),
            }
        )

    report = {
        "model": exp.model_meta,
        "controls": exp.control_kind,
        "target": target,
        "assumption1_distinct_gaps": {"holds": assumption1, "coincident_gap_pairs": gap_clashes},
        "assumption2_fully_connected": {"holds": assumption2, "channels": channel_reports},
        "assumption3_nondegenerate_shifted": {"holds": assumption3, "min_gap": min_gap},
        "alpha_sufficiency": sufficiency,
        "note": "informational only; violations do not block runs",
    }
    out = _output(exp.output, "_validate.json")
    _write_json(out, report)

    print(f"assumption 1 (distinct drift gaps): {'holds' if assumption1 else 'violated'}")
    print(f"assumption 2 (fully connected controls): {'holds' if assumption2 else 'violated'}")
    for entry in channel_reports:
        print(
            f"  channel {entry['channel']}: "
            f"{entry['zero_offdiagonal_pairs']} zero off-diagonal pairs"
        )
    print(
        f"assumption 3 (non-degenerate shifted spectrum): "
        f"{'holds' if assumption3 else 'violated'} (min gap {min_gap:.3e})"
    )
    for entry in sufficiency:
        verdict = "sufficient" if entry["sufficient"] else "insufficient"
        print(
            f"alpha[{entry['shift']}] = {entry['alpha']:g} vs required gap "
            f"{entry['required_gap']:.6g}: {verdict}"
        )
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feedbackq",
        description="Feedback-grown quantum circuits for eigenstate preparation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
        ("run", cmd_run, "single feedback run"),
        ("spectrum", cmd_spectrum, "deflation through the lowest eigenstates"),
        ("sweep", cmd_sweep, "axis sweep with per-point aggregates"),
        ("validate", cmd_validate, "report convergence assumptions"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", help="output path prefix (sets 'output')")
        p.add_argument("--seed", type=int, help="master seed (sets 'seed')")
        shots = p.add_mutually_exclusive_group()
        shots.add_argument("--shots", type=int, help="per-estimate shot count (sets 'feedback.shots')")
        shots.add_argument(
            "--exact", action="store_true", help="exact expectation values (clears 'feedback.shots')"
        )

    spectrum, sweep = sub.choices["spectrum"], sub.choices["sweep"]
    spectrum.add_argument("--count", type=int, help="number of eigenstates (sets 'count')")
    sweep.add_argument("--axis", choices=tuple(SWEEP_AXES), help="sweep axis (sets 'sweep.axis')")
    sweep.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FeedbackRunError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
