"""Command line entry points: exit codes, file outputs, determinism."""

import copy
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from feedbackq import StateVector
from feedbackq.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, SWEEP_COLUMNS, main


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def bench_doc(**overrides):
    doc = {
        "seed": 7,
        "model": {
            "family": "ising",
            "n": 2,
            "couplings": [[0.0, 0.5], [0.5, 0.0]],
            "fields": [1.0, 2.0],
        },
        "controls": "y_per_qubit",
        "initial_state": "plus",
        "target": 1,
        "alpha": {"strategy": "fixed", "values": [7.0]},
        "feedback": {"dt": 0.08, "gains": [1.5, 1.5], "depth": 60},
    }
    doc.update(overrides)
    return doc


def ising_sweep_doc(axis, values, **feedback):
    return {
        "seed": 5,
        "model": {"family": "ising_random", "n": 3, "instance_seed": 0},
        "controls": "x_mixer",
        "target": 1,
        "alpha": {"strategy": "fixed", "values": [4.0]},
        "feedback": dict({"dt": 0.05, "gains": [1.0], "depth": 20}, **feedback),
        "sweep": {"axis": axis, "values": values, "instances": 2,
                  "dt_candidates": [0.05], "monotone_tolerance": 10.0},
    }


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_run_writes_trace_and_summary(tmp_path):
    cfg = write_doc(tmp_path, bench_doc())
    out = str(tmp_path / "bench")
    assert main(["run", "--config", cfg, "--out", out]) == EXIT_OK

    rows = read_rows(tmp_path / "bench_trace.csv")
    assert rows[0] == ["layer", "u_1", "u_2", "V", "energy", "fid_0", "fid_1"]
    assert len(rows) == 61
    assert [r[0] for r in rows[1:]] == [str(k) for k in range(1, 61)]
    v_col = [float(r[3]) for r in rows[1:]]
    assert v_col[-1] < -1.3
    assert max(np.diff(v_col)) <= 1e-9
    assert float(rows[-1][6]) > 0.9

    summary = json.loads((tmp_path / "bench_summary.json").read_text())
    assert summary["target"] == 1
    assert summary["alphas"] == [7.0]
    assert summary["final_energy"] == pytest.approx(float(rows[-1][4]))
    assert summary["final_lyapunov"] == pytest.approx(v_col[-1])
    assert len(summary["final_fidelities"]) == 2
    assert summary["wall_time_s"] >= 0.0
    assert set(summary) == {
        "model", "controls", "backend", "shots", "seed", "target", "alphas", "layers_completed",
        "aborted_layer", "final_energy", "final_lyapunov", "final_fidelities", "final_controls",
        "wall_time_s", "trace",
    }


def test_trace_values_carry_twelve_significant_digits(tmp_path):
    cfg = write_doc(tmp_path, bench_doc(feedback={"dt": 0.08, "gains": [1.5, 1.5], "depth": 5}))
    out = str(tmp_path / "digits")
    assert main(["run", "--config", cfg, "--out", out]) == EXIT_OK
    rows = read_rows(tmp_path / "digits_trace.csv")
    cell = rows[1][3]
    assert cell == "%.12g" % float(cell)
    assert float(cell) == pytest.approx(1.75, abs=1e-6)
    assert len(rows[2][3].replace("-", "").replace(".", "").lstrip("0")) >= 10


def test_sampled_run_is_byte_deterministic(tmp_path):
    doc = bench_doc(
        feedback={
            "dt": 0.08, "gains": [1.5, 1.5], "depth": 25,
            "backend": "overlap_hadamard", "shots": 200,
        }
    )
    cfg = write_doc(tmp_path, doc)
    for name in ("a", "b"):
        assert main(["run", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
    assert (tmp_path / "a_trace.csv").read_bytes() == (tmp_path / "b_trace.csv").read_bytes()

    assert main(["run", "--config", cfg, "--out", str(tmp_path / "c"), "--seed", "8"]) == EXIT_OK
    assert (tmp_path / "a_trace.csv").read_bytes() != (tmp_path / "c_trace.csv").read_bytes()


def test_exact_override_removes_shot_noise(tmp_path):
    doc = bench_doc(
        feedback={
            "dt": 0.08, "gains": [1.5, 1.5], "depth": 25,
            "backend": "overlap_hadamard", "shots": 50,
        }
    )
    cfg = write_doc(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "noisy")]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "clean"), "--exact"]) == EXIT_OK

    exact_doc = bench_doc(feedback={"dt": 0.08, "gains": [1.5, 1.5], "depth": 25})
    cfg2 = write_doc(tmp_path, exact_doc, name="exact.json")
    assert main(["run", "--config", cfg2, "--out", str(tmp_path / "ref")]) == EXIT_OK
    # the exact backend runs at the exact budget whatever shot count it is given
    assert main(["run", "--config", cfg2, "--out", str(tmp_path / "x"), "--shots", "50"]) == EXIT_OK
    assert json.loads((tmp_path / "x_summary.json").read_text())["shots"] is None
    assert (tmp_path / "x_trace.csv").read_bytes() == (tmp_path / "ref_trace.csv").read_bytes()

    clean = read_rows(tmp_path / "clean_trace.csv")
    ref = read_rows(tmp_path / "ref_trace.csv")
    assert clean == ref
    assert read_rows(tmp_path / "noisy_trace.csv") != ref


def test_config_rejection_paths(tmp_path, capsys):
    bad_depth = write_doc(
        tmp_path, bench_doc(feedback={"dt": 0.08, "gains": [1.5, 1.5], "depth": 0})
    )
    assert main(["run", "--config", bad_depth]) == EXIT_CONFIG

    no_shots = write_doc(tmp_path, bench_doc(
        feedback={"dt": 0.08, "gains": [1.5, 1.5], "depth": 5, "shots": 0}), "shots.json")
    assert main(["run", "--config", no_shots]) == EXIT_CONFIG

    assert main(["run", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["run", "--config", str(garbled)]) == EXIT_CONFIG

    # a directory and a file that is not UTF-8 are unreadable configs
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"seed": "\xe9"}')
    for unreadable in (tmp_path, latin1):
        assert main(["run", "--config", str(unreadable)]) == EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    unknown = write_doc(tmp_path, bench_doc(model={"family": "heisenberg"}), "m.json")
    assert main(["run", "--config", unknown]) == EXIT_CONFIG

    bad_state = write_doc(tmp_path, bench_doc(initial_state="012"), "s.json")
    assert main(["run", "--config", bad_state]) == EXIT_CONFIG

    bad_alpha = write_doc(
        tmp_path, bench_doc(alpha={"strategy": "fixed", "values": [1.0, 2.0]}), "a.json"
    )
    assert main(["run", "--config", bad_alpha]) == EXIT_CONFIG

    # spectrum reads the alpha block for count - 1 shifts, count 1 included
    for count, alpha in (
        (2, {"strategy": "fixed", "values": [1.0, 2.0]}),
        (1, {"strategy": "fixed", "values": [7.0]}),
        (2, {"strategy": "iterative"}),
        (2, 7.0),
        (2, {"strategy": "fixed", "values": ["x"]}),
    ):
        spec = write_doc(tmp_path, bench_doc(alpha=alpha, count=count), "spec.json")
        assert main(["spectrum", "--config", spec, "--out", str(tmp_path / "spec")]) == EXIT_CONFIG

    # shift settings are checked before any run: every weight must be positive
    # and the target must be one of the 2**n levels
    zero_drift = {"family": "pauli", "terms": "0", "n": 2}
    random_model = {"family": "ising_random", "n": 2, "instance_seed": 0}
    for command, doc in (
        ("run", bench_doc(alpha={"strategy": "fixed", "values": [-1.0]})),
        ("validate", bench_doc(alpha={"strategy": "fixed", "values": [-1.0]})),
        ("run", bench_doc(model=zero_drift, alpha={"strategy": "bound"})),
        ("run", bench_doc(alpha={"strategy": "iterative", "start": "x"})),
        ("run", bench_doc(alpha={"strategy": "iterative", "start": 0})),
        ("run", bench_doc(target=5, alpha={"strategy": "fixed", "values": [7.0] * 5})),
        ("sweep", bench_doc(target=5, model=random_model, controls="x_mixer",
                            alpha={"strategy": "fixed", "values": [7.0] * 5},
                            feedback={"dt": 0.08, "gains": [1.0], "depth": 5},
                            sweep={"axis": "seed", "values": [0, 1]})),
        ("spectrum", bench_doc(count=5, alpha={"strategy": "fixed", "values": [7.0] * 4})),
    ):
        cfg = write_doc(tmp_path, doc, "shift.json")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "shift")]) == EXIT_CONFIG
    assert not list(tmp_path.glob("shift_*"))

    # retired keys are rejected by name
    feedback = {"dt": 0.08, "gains": [1.5, 1.5], "depth": 5}
    for key, doc in (
        ("feedback.psr_literal", bench_doc(feedback={"dt": 0.08, "gains": [1.5, 1.5], "depth": 5,
                                                     "psr_literal": False})),
        ("feedback.initial_controls", bench_doc(feedback=dict(feedback, initial_controls=[0, 0]))),
        ("feedback.epsilon", bench_doc(feedback=dict(feedback, epsilon=1e-5))),
        ("feedback.stop_control_threshold",
         bench_doc(feedback=dict(feedback, stop_control_threshold=1e-6))),
        ("feedback.stop_value_threshold",
         bench_doc(feedback=dict(feedback, stop_value_threshold=1e-3))),
        ("model.low", bench_doc(model=dict(random_model, low=-2.0))),
        ("model.high", bench_doc(model=dict(random_model, high=2.0))),
        ("model.file", bench_doc(model={"file": "model.json"})),
    ):
        capsys.readouterr()
        cfg = write_doc(tmp_path, doc, "retired.json")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "retired")]) == EXIT_CONFIG
        assert f"'{key}' is retired" in capsys.readouterr().err


FEEDBACK = {"dt": 0.08, "gains": [1.5, 1.5], "depth": 5}
STAGES = {"count": 2, "stages": [{}, {}]}


def _stage(**fields):
    return dict(STAGES, stages=[fields, {}])


def _sweep_with(**fields):
    doc = ising_sweep_doc("n", [3])
    doc["sweep"].update(fields)
    return doc


def _bad_cases(values, fields):
    """One (command, key, config) case per bad value and field.

    Each field is (command, dotted key, id, function of the bad value
    returning the config).
    """
    return [
        pytest.param(command, key, make(value), id=f"{name}-{tag}")
        for command, key, name, make in fields
        for tag, value in values.items()
    ]


# Integer fields that already refused fractions.
INTEGER_FIELDS = [
    ("run", "seed", "seed", lambda v: bench_doc(seed=v)),
    ("run", "target", "target", lambda v: bench_doc(target=v)),
    ("spectrum", "count", "count", lambda v: bench_doc(count=v)),
    ("run", "feedback.shots", "shots", lambda v: bench_doc(feedback=dict(FEEDBACK, shots=v))),
    ("run", "feedback.depth", "depth", lambda v: bench_doc(feedback=dict(FEEDBACK, depth=v))),
    ("run", "feedback.trotter_slices", "trotter_slices",
     lambda v: bench_doc(feedback=dict(FEEDBACK, trotter_slices=v))),
    ("spectrum", "stages[0].depth", "stage_depth", lambda v: bench_doc(**_stage(depth=v))),
    ("spectrum", "stages[0].trotter_slices", "stage_slices",
     lambda v: bench_doc(**_stage(trotter_slices=v))),
]
# Integer fields that truncated a fraction.
TRUNCATED_FIELDS = [
    ("run", "model.n", "model_n",
     lambda v: bench_doc(model=dict(bench_doc()["model"], n=v))),
    ("run", "model.instance_seed", "instance_seed",
     lambda v: bench_doc(model={"family": "ising_random", "n": 2, "instance_seed": v})),
    ("sweep", "sweep.instances", "instances",
     lambda v: _sweep_with(instances=v)),
    ("sweep", "sweep.values[0]", "n_axis", lambda v: ising_sweep_doc("n", [v])),
    ("sweep", "sweep.values[0]", "seed_axis", lambda v: ising_sweep_doc("seed", [v])),
]


@pytest.mark.parametrize(
    "command, key, doc",
    [
        pytest.param("run", "seed", bench_doc(seed="abc"), id="seed"),
        pytest.param("run", "target", bench_doc(target="one"), id="target"),
        pytest.param("run", "feedback.shots", bench_doc(
            feedback=dict(FEEDBACK, backend="overlap_hadamard", shots="many")), id="shots"),
        pytest.param("spectrum", "count", bench_doc(count="abc"), id="count"),
        pytest.param("run", "feedback.depth", bench_doc(feedback=dict(FEEDBACK, depth=2.9)),
                     id="depth"),
        pytest.param("run", "feedback.trotter_slices",
                     bench_doc(feedback=dict(FEEDBACK, trotter_slices=1.7)), id="trotter_slices"),
        pytest.param("spectrum", "stages[0].depth", bench_doc(**_stage(depth=2.9)),
                     id="stage_depth"),
    ]
    + _bad_cases({"inf": math.inf, "true": True}, INTEGER_FIELDS)
    + _bad_cases({"inf": math.inf, "fraction": 2.5, "true": True}, TRUNCATED_FIELDS),
)
def test_non_integer_field_is_a_config_error(tmp_path, capsys, command, key, doc):
    cfg = write_doc(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "bad")]) == EXIT_CONFIG
    assert f"'{key}' must be an integer" in capsys.readouterr().err
    assert not list(tmp_path.glob("bad_*"))


def _with_alpha(**alpha):
    return bench_doc(alpha=alpha)


NUMBER_FIELDS = [
    ("run", "feedback.dt", "dt", lambda v: bench_doc(feedback=dict(FEEDBACK, dt=v))),
    ("run", "feedback.gains", "gain", lambda v: bench_doc(feedback=dict(FEEDBACK, gains=v))),
    ("run", "feedback.gains[1]", "gains",
     lambda v: bench_doc(feedback=dict(FEEDBACK, gains=[1.5, v]))),
    ("run", "feedback.abort_on_increase", "abort",
     lambda v: bench_doc(feedback=dict(FEEDBACK, abort_on_increase=v))),
    ("run", "alpha.values[0]", "alpha_values", lambda v: _with_alpha(strategy="fixed", values=[v])),
    ("run", "alpha.start", "alpha_start", lambda v: _with_alpha(strategy="iterative", start=v)),
    ("run", "model.J", "mfi_J", lambda v: bench_doc(
        model={"family": "mfi", "n": 3, "J": v, "h": 1.0, "g": 0.5},
        feedback=dict(FEEDBACK, gains=1.0))),
    ("run", "model.R", "h2_R", lambda v: bench_doc(model={"family": "h2", "R": v})),
    ("run", "model.fields[1]", "ising_fields",
     lambda v: bench_doc(model=dict(bench_doc()["model"], fields=[1.0, v]))),
    ("run", "model.couplings[0][1]", "ising_couplings",
     lambda v: bench_doc(model=dict(bench_doc()["model"], couplings=[[0.0, v], [0.5, 0.0]]))),
    ("spectrum", "stages[0].dt", "stage_dt", lambda v: bench_doc(**_stage(dt=v))),
    ("spectrum", "stages[0].gains", "stage_gain", lambda v: bench_doc(**_stage(gains=v))),
    ("sweep", "sweep.dt_candidates[0]", "dt_candidates",
     lambda v: _sweep_with(dt_candidates=[v])),
    ("sweep", "sweep.monotone_tolerance", "monotone_tolerance",
     lambda v: _sweep_with(monotone_tolerance=v)),
    ("sweep", "sweep.values[0]", "r_axis", lambda v: dict(
        bench_doc(model={"family": "h2", "R": 1.05}, alpha={"strategy": "fixed", "values": [1.8]}),
        sweep={"axis": "R", "values": [v]})),
]


@pytest.mark.parametrize(
    "command, key, doc",
    _bad_cases({"nan": math.nan, "inf": math.inf, "true": True}, NUMBER_FIELDS)
    + [pytest.param("run", "feedback.gains", bench_doc(feedback=dict(FEEDBACK, gains="12")),
                    id="gains-string")],
)
def test_non_number_field_is_a_config_error(tmp_path, capsys, command, key, doc):
    cfg = write_doc(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "bad")]) == EXIT_CONFIG
    assert f"'{key}' must be a number" in capsys.readouterr().err
    assert not list(tmp_path.glob("bad_*"))


@pytest.mark.parametrize("command, doc", [
    ("run", bench_doc()),
    ("spectrum", bench_doc(count=2)),
    ("sweep", ising_sweep_doc("seed", [0, 1])),
    ("validate", bench_doc()),
])
def test_unwritable_output_prefix_is_a_config_error(tmp_path, capsys, monkeypatch, command, doc):
    """A prefix under a regular file exits 2 before any run, not with a traceback after it.

    So does a prefix ending in a path separator, from --out or from the
    config, which would otherwise lose the separator and write beside
    the directory it names.
    """
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("feedbackq.cli.run_fqae", no_run)
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = write_doc(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(blocker / "x")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err

    outdir = str(tmp_path / "outdir") + os.sep
    in_config = write_doc(tmp_path, dict(doc, output=outdir), "slash.json")
    for argv in (["--config", cfg, "--out", outdir], ["--config", in_config]):
        assert main([command, *argv]) == EXIT_CONFIG
        assert "ends in a path separator" in capsys.readouterr().err
    assert not list(tmp_path.glob("outdir*"))


def test_shot_count_past_numpy_is_a_config_error(tmp_path, capsys, monkeypatch):
    """numpy draws fewer than 2**63 shots: more exits 2 before any run, not 1 at layer 1."""
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("feedbackq.cli.run_fqae", no_run)
    cfg = str(CONFIG_DIR / "ising_41_shots.json")
    out = str(tmp_path / "big")
    assert main(["run", "--config", cfg, "--out", out, "--shots", str(10**20)]) == EXIT_CONFIG
    assert "shots must be below 2**63" in capsys.readouterr().err
    assert not list(tmp_path.glob("big*"))


@pytest.mark.parametrize("coeff", ["nan", "inf"])
def test_non_finite_pauli_coefficient_is_a_config_error(tmp_path, capsys, coeff):
    """A NaN term is not silently pruned and an infinite one does not fail mid-run."""
    model = {"family": "pauli", "terms": f"{coeff}*ZI +1.0*IZ +0.5*ZZ"}
    cfg = write_doc(tmp_path, bench_doc(model=model, target=0))
    out = str(tmp_path / "bad")
    assert main(["run", "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert "coefficient of ZI is not finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("bad*"))


@pytest.mark.parametrize("command, doc", [
    ("run", ising_sweep_doc("seed", [0])),
    ("spectrum", dict(ising_sweep_doc("seed", [0]), count=2)),
    ("validate", ising_sweep_doc("seed", [0])),
    ("sweep", ising_sweep_doc("seed", [0, 1])),
])
def test_grad_psr_needs_two_level_channels(tmp_path, capsys, monkeypatch, command, doc):
    """grad_psr on a channel without a +/-lambda spectrum exits 2 before any run."""
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("feedbackq.cli.run_fqae", no_run)
    doc["feedback"].update(backend="grad_psr", shots=100)
    cfg = write_doc(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "psr")]) == EXIT_CONFIG
    assert "grad_psr cannot drive control channel 0" in capsys.readouterr().err
    assert not list(tmp_path.glob("psr*"))


def test_runtime_failure_flushes_partial_trace(tmp_path):
    # A finite gain whose control overflows to inf fails at layer 1.
    doc = bench_doc(
        target=0,
        controls="global_xyz",
        feedback={"dt": 0.08, "gains": [1e308, 1e308, 1e308], "depth": 30},
    )
    doc.pop("alpha")
    cfg = write_doc(tmp_path, doc)
    out = str(tmp_path / "partial")
    assert main(["run", "--config", cfg, "--out", out]) == EXIT_RUNTIME
    rows = read_rows(tmp_path / "partial_trace.csv")
    assert rows[0][:4] == ["layer", "u_1", "u_2", "u_3"]
    assert len(rows) == 2

    summary = json.loads((tmp_path / "partial_summary.json").read_text())
    assert "error" in summary
    assert summary["layers_completed"] == 1
    assert "is not finite" in summary["error"]
    assert set(summary) == {"error", "layers_completed", "trace"}


def test_failed_alpha_search_exits_with_a_summary(tmp_path, capsys):
    """Starting on the ground state, no doubling lifts it: a typed failure, not a traceback."""
    doc = bench_doc(initial_state="11", alpha={"strategy": "iterative"},
                    feedback={"dt": 0.08, "gains": [1.5, 1.5], "depth": 1})
    cfg = write_doc(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "alpha")]) == EXIT_RUNTIME
    assert "no sufficient alpha found within 32 doublings" in capsys.readouterr().err
    summary = json.loads((tmp_path / "alpha_summary.json").read_text())
    assert summary["error"] == "no sufficient alpha found within 32 doublings"
    assert summary["layers_completed"] == 1
    assert len(read_rows(tmp_path / "alpha_trace.csv")) == 2

    doc["sweep"] = {"axis": "seed", "values": [0], "instances": 1}
    cfg = write_doc(tmp_path, doc, name="sweep.json")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw")]) == EXIT_RUNTIME
    row = dict(zip(*read_rows(tmp_path / "sw_sweep.csv")))
    assert row["mean_fidelity"] == "nan"


def test_spectrum_reproduces_low_lying_energies(tmp_path):
    out = str(tmp_path / "spec")
    code = main(
        ["spectrum", "--config", str(CONFIG_DIR / "ising_41_spectrum.json"), "--out", out]
    )
    assert code == EXIT_OK
    summary = json.loads((tmp_path / "spec_spectrum.json").read_text())
    energies = summary["energies"]
    assert len(energies) == 2
    assert energies[0] == pytest.approx(-2.5, abs=0.15)
    assert energies[1] == pytest.approx(-1.5, abs=0.15)
    assert summary["reference_energies"] == pytest.approx([-2.5, -1.5])
    for stage in range(2):
        assert (tmp_path / f"spec_stage{stage}_trace.csv").exists()


def test_validate_reports_assumptions(tmp_path, capsys):
    out = str(tmp_path / "val")
    code = main(
        ["validate", "--config", str(CONFIG_DIR / "ising_41_run.json"), "--out", out]
    )
    assert code == EXIT_OK
    report = json.loads((tmp_path / "val_validate.json").read_text())
    # coincident gaps (two pairs differ by 3) break assumption 1
    assert report["assumption1_distinct_gaps"] == {"holds": False, "coincident_gap_pairs": 1}
    # Two single-qubit Y channels connect only states one bit flip apart:
    # the target's level first, then the rest.
    assert report["assumption2_fully_connected"] == {
        "holds": False,
        "unconnected_level_pairs": 2,
        "pairs": [
            {"p_values": [-1.5, 0.5], "multiplicities": [1, 1], "states": ["01", "10"]},
            {"p_values": [3.5, 4.5], "multiplicities": [1, 1], "states": ["00", "11"]},
        ],
    }
    # the shifted operator with alpha=7 has spectrum -1.5, 0.5, 3.5, 4.5
    assert report["assumption3_nondegenerate_shifted"]["holds"] is True
    assert report["assumption3_nondegenerate_shifted"]["min_gap"] == pytest.approx(1.0)
    assert report["alpha_sufficiency"][0]["sufficient"] is True
    text = capsys.readouterr().out
    assert "assumption 1" in text and "violated" in text
    assert "  P -1.5 |01> and P 0.5 |10>\n  P 3.5 |00> and P 4.5 |11>\n" in text


def test_validate_one_connected_qubit_holds(tmp_path):
    """Y connects the two levels of Z, so no pair is left unconnected."""
    doc = {
        "model": {"family": "pauli", "terms": "1.0*Z"},
        "controls": "y_per_qubit",
        "feedback": {"dt": 0.1, "depth": 5},
    }
    cfg = write_doc(tmp_path, doc)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "one")]) == EXIT_OK
    report = json.loads((tmp_path / "one_validate.json").read_text())
    assert report["assumption2_fully_connected"] == {
        "holds": True, "unconnected_level_pairs": 0, "pairs": [],
    }


def _close(a, b, tol):
    """Equal structures whose floats differ by at most `tol`."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _close(a[k], b[k], tol) for k in a
        )
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(
            _close(x, y, tol) for x, y in zip(a, b)
        )
    if isinstance(a, float):
        return isinstance(b, float) and abs(a - b) <= tol
    return a == b


def test_validate_report_does_not_depend_on_blas_threads(tmp_path):
    """Connectivity is counted per pair of P levels, which no rotation inside
    a degenerate level changes, so the BLAS thread count leaves it alone."""
    import feedbackq

    doc = json.loads((CONFIG_DIR / "mfi_run.json").read_text())
    doc["model"]["n"] = 9
    cfg = write_doc(tmp_path, doc)
    # the subprocesses import the same package source as this test
    src = str(Path(feedbackq.__file__).resolve().parent.parent)
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        out = str(tmp_path / f"threads{threads}")
        proc = subprocess.run(
            [sys.executable, "-m", "feedbackq", "validate", "--config", cfg, "--out", out],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        reports.append(json.loads(Path(out + "_validate.json").read_text()))
    connectivity = reports[0]["assumption2_fully_connected"]
    assert connectivity["unconnected_level_pairs"] > 0 and len(connectivity["pairs"]) == 10
    assert _close(reports[0], reports[1], 1e-10)


def test_validate_rejects_large_models(tmp_path, capsys):
    doc = {
        "model": {"family": "ising_random", "n": 13, "instance_seed": 0},
        "feedback": {"dt": 0.01, "gains": 1.0, "depth": 5},
    }
    cfg = write_doc(tmp_path, doc)
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
    assert "validate needs a dense spectrum; 13 qubits exceeds the limit" in capsys.readouterr().err


def test_sweep_r_axis_records_missing_rows_as_nan(tmp_path):
    doc = {
        "seed": 1,
        "model": {"family": "h2", "R": 1.05},
        "controls": "y_per_qubit",
        "initial_state": "01",
        "target": 1,
        "alpha": {"strategy": "fixed", "values": [1.8]},
        "feedback": {"dt": 0.55, "gains": [1.0, 1.0], "depth": 25, "trotter_slices": 16},
        "sweep": {"axis": "R", "values": [1.05, 2.0]},
    }
    cfg = write_doc(tmp_path, doc)
    out = str(tmp_path / "rsweep")
    assert main(["sweep", "--config", cfg, "--out", out]) == EXIT_RUNTIME
    rows = read_rows(tmp_path / "rsweep_sweep.csv")
    assert rows[0] == SWEEP_COLUMNS
    assert len(rows) == 3
    good = dict(zip(rows[0], rows[1]))
    assert float(good["value"]) == 1.05
    assert 0.0 <= float(good["mean_fidelity"]) <= 1.0
    bad = dict(zip(rows[0], rows[2]))
    assert bad["mean_fidelity"] == "nan"

    summary = json.loads((tmp_path / "rsweep_sweep.json").read_text())
    assert summary["axis"] == "R"
    assert len(summary["rows"]) == 2
    assert summary["failed_points"] == 1


def test_sweep_r_axis_rejects_missing_table(tmp_path):
    """Only a missing R row is tolerated; a missing table is a config error."""
    doc = {
        "seed": 1,
        "model": {"family": "h2", "R": 1.05, "table": "no_such_table.csv"},
        "controls": "y_per_qubit",
        "initial_state": "01",
        "target": 1,
        "alpha": {"strategy": "fixed", "values": [1.8]},
        "feedback": {"dt": 0.55, "gains": [1.0, 1.0], "depth": 5},
        "sweep": {"axis": "R", "values": [1.05, 2.0]},
    }
    cfg = write_doc(tmp_path, doc)
    out = str(tmp_path / "rsweep")
    assert main(["sweep", "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert not (tmp_path / "rsweep_sweep.csv").exists()

    doc["model"].pop("table")
    doc["sweep"]["values"] = [2.0, 1.05]
    cfg = write_doc(tmp_path, doc)
    assert main(["sweep", "--config", cfg, "--out", out]) == EXIT_RUNTIME
    rows = read_rows(tmp_path / "rsweep_sweep.csv")
    missing, tabulated = (dict(zip(rows[0], row)) for row in rows[1:])
    assert float(missing["value"]) == 2.0 and missing["mean_fidelity"] == "nan"
    assert float(tabulated["value"]) == 1.05
    assert 0.0 <= float(tabulated["mean_fidelity"]) <= 1.0


def test_control_bound_violation_exits_with_partial_trace(tmp_path, monkeypatch):
    from feedbackq import feedback

    monkeypatch.setattr(feedback, "_controller_from_pieces", lambda *args: 1e6)
    cfg = write_doc(tmp_path, bench_doc())
    out = str(tmp_path / "bound")
    assert main(["run", "--config", cfg, "--out", out]) == EXIT_RUNTIME
    rows = read_rows(tmp_path / "bound_trace.csv")
    assert len(rows) == 2
    summary = json.loads((tmp_path / "bound_summary.json").read_text())
    assert "bound violated" in summary["error"]
    assert summary["layers_completed"] == 1


def test_failed_layer_step_exits_with_partial_trace(tmp_path, capsys):
    """A finite dt whose drift angle overflows exits 1 with the empty partial trace, no traceback."""
    doc = json.loads((CONFIG_DIR / "ising_41_run.json").read_text())
    doc["feedback"]["dt"] = 1e308
    cfg = write_doc(tmp_path, doc)
    out = str(tmp_path / "step")
    assert main(["run", "--config", cfg, "--out", out]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "run failed: layer step failed at layer 1: math domain error" in err
    assert "Traceback" not in err
    rows = read_rows(tmp_path / "step_trace.csv")
    assert rows[0][:3] == ["layer", "u_1", "u_2"] and len(rows) == 1
    summary = json.loads((tmp_path / "step_summary.json").read_text())
    assert summary["layers_completed"] == 0
    assert summary["error"] == "layer step failed at layer 1: math domain error"


def test_sweep_records_a_failed_layer_step_as_nan(tmp_path, capsys):
    """A dt candidate whose drift angle overflows is rejected and the next one
    runs; with no candidate left the point is a NaN row, and the sweep exits 1."""
    doc = ising_sweep_doc("n", [2])
    doc["sweep"].update(alpha=4.0, dt_candidates=[1e308, 0.05])
    cfg = write_doc(tmp_path, doc)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "next")]) == EXIT_OK
    row = dict(zip(*read_rows(tmp_path / "next_sweep.csv")))
    assert row["dt"] == "0.05" and row["instances"] == "2"

    doc["sweep"]["dt_candidates"] = [1e308]
    cfg = write_doc(tmp_path, doc)
    capsys.readouterr()
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw")]) == EXIT_RUNTIME
    # The control angle overflows once |u| * dt passes the largest float.
    error = re.fullmatch(
        r"point 2 failed: (no candidate time step satisfied the descent condition; the last "
        r"failed run, at dt = 1e\+308: layer step failed at layer \d+: math domain error)\n",
        capsys.readouterr().err,
    )
    assert error
    row = dict(zip(*read_rows(tmp_path / "sw_sweep.csv")))
    assert row["instances"] == "0" and row["mean_fidelity"] == "nan"
    summary = json.loads((tmp_path / "sw_sweep.json").read_text())
    assert summary["failed_points"] == 1
    assert summary["rows"][0]["error"] == error[1]


def test_sweep_seed_axis_runs_instances(tmp_path):
    doc = {
        "seed": 3,
        "model": {"family": "ising_random", "n": 3, "instance_seed": 0},
        "controls": "x_mixer",
        "target": 1,
        "alpha": {"strategy": "fixed", "values": [4.0]},
        "feedback": {"dt": 0.05, "gains": [1.0], "depth": 30},
        "sweep": {"axis": "seed", "values": [0, 1, 2]},
    }
    cfg = write_doc(tmp_path, doc)
    out = str(tmp_path / "seeds")
    assert main(["sweep", "--config", cfg, "--out", out]) == EXIT_OK
    rows = read_rows(tmp_path / "seeds_sweep.csv")
    assert len(rows) == 4
    for row in rows[1:]:
        record = dict(zip(rows[0], row))
        assert float(record["dt"]) == 0.05
        assert 0.0 <= float(record["mean_fidelity"]) <= 1.0


def test_sweep_n_axis_tunes_the_time_step(tmp_path):
    doc = {
        "seed": 0,
        "model": {"family": "ising_random", "n": 2, "instance_seed": 0},
        "controls": "x_mixer",
        "target": 1,
        "alpha": {"strategy": "fixed", "values": [4.0]},
        "feedback": {"dt": 0.05, "gains": [1.0], "depth": 60},
        "sweep": {
            "axis": "n",
            "values": [2, 3],
            "instances": 2,
            "alpha": 4.0,
            "dt_candidates": [0.1, 0.05, 0.02, 0.01, 0.005, 0.002],
            "monotone_tolerance": 1e-6,
        },
    }
    cfg = write_doc(tmp_path, doc)
    out = str(tmp_path / "nsweep")
    assert main(["sweep", "--config", cfg, "--out", out]) == EXIT_OK
    rows = read_rows(tmp_path / "nsweep_sweep.csv")
    assert len(rows) == 3
    for row in rows[1:]:
        record = dict(zip(rows[0], row))
        assert record["instances"] == "2"
        assert float(record["dt"]) in (0.1, 0.05, 0.02, 0.01, 0.005, 0.002)
        assert 0.0 <= float(record["mean_fidelity"]) <= 1.0


def test_sweep_parallel_matches_serial(tmp_path):
    doc = {
        "seed": 3,
        "model": {"family": "ising_random", "n": 3, "instance_seed": 0},
        "controls": "x_mixer",
        "target": 1,
        "alpha": {"strategy": "fixed", "values": [4.0]},
        "feedback": {"dt": 0.05, "gains": [1.0], "depth": 20},
        "sweep": {"axis": "seed", "values": [0, 1]},
    }
    cfg = write_doc(tmp_path, doc)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "ser")]) == EXIT_OK
    code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "par"), "--jobs", "2"])
    assert code == EXIT_OK
    assert (tmp_path / "ser_sweep.csv").read_bytes() == (tmp_path / "par_sweep.csv").read_bytes()


def test_sweep_jobs_never_exceed_points(tmp_path, monkeypatch):
    """A pool gets at most one worker per point, and --jobs below 1 is a config error."""
    pools = []

    class Recorder:
        """Stands in for the process pool: records its size and maps in process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Recorder)
    doc = {
        "seed": 3,
        "model": {"family": "ising_random", "n": 3, "instance_seed": 0},
        "controls": "x_mixer",
        "target": 1,
        "alpha": {"strategy": "fixed", "values": [4.0]},
        "feedback": {"dt": 0.05, "gains": [1.0], "depth": 5},
        "sweep": {"axis": "seed", "values": [0, 1]},
    }
    cfg = write_doc(tmp_path, doc)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "ser")]) == EXIT_OK
    code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "par"), "--jobs", "10000"])
    assert code == EXIT_OK and pools == [2]
    assert (tmp_path / "ser_sweep.csv").read_bytes() == (tmp_path / "par_sweep.csv").read_bytes()
    one = write_doc(tmp_path, dict(doc, sweep={"axis": "seed", "values": [0]}), "one.json")
    assert main(["sweep", "--config", one, "--out", str(tmp_path / "one"), "--jobs", "10000"]) == EXIT_OK
    assert pools == [2]
    for jobs in ("0", "-3"):
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "bad"), "--jobs", jobs])
        assert code == EXIT_CONFIG
    assert pools == [2] and not list(tmp_path.glob("bad*"))


def test_sweep_without_sweep_block_is_rejected(tmp_path):
    cfg = write_doc(tmp_path, bench_doc())
    assert main(["sweep", "--config", cfg]) == EXIT_CONFIG


def test_csv_schema_depends_only_on_channels_and_tracked(tmp_path):
    one = bench_doc(
        controls="x_mixer",
        alpha={"strategy": "fixed", "values": [7.0]},
        feedback={"dt": 0.08, "gains": [1.0], "depth": 5},
    )
    cfg = write_doc(tmp_path, one)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "one")]) == EXIT_OK
    header = read_rows(tmp_path / "one_trace.csv")[0]
    assert header == ["layer", "u_1", "V", "energy", "fid_0", "fid_1"]

    other = {
        "seed": 2,
        "model": {"family": "h2", "R": 1.05},
        "controls": "x_mixer",
        "target": 1,
        "alpha": {"strategy": "fixed", "values": [1.8]},
        "feedback": {"dt": 0.55, "gains": [1.0], "depth": 5, "trotter_slices": 4},
    }
    cfg2 = write_doc(tmp_path, other, name="other.json")
    assert main(["run", "--config", cfg2, "--out", str(tmp_path / "two")]) == EXIT_OK
    assert read_rows(tmp_path / "two_trace.csv")[0] == header


def test_module_entrypoint_runs(tmp_path):
    import feedbackq

    cfg = write_doc(tmp_path, bench_doc(feedback={"dt": 0.08, "gains": [1.5, 1.5], "depth": 3}))
    # the subprocess imports the same package source as this test
    env = dict(os.environ, PYTHONPATH=str(Path(feedbackq.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "feedbackq", "run", "--config", cfg,
         "--out", str(tmp_path / "mod")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == EXIT_OK
    assert (tmp_path / "mod_trace.csv").exists()


def test_shipped_configs_parse(tmp_path):
    """Each shipped config builds its experiment; a sweep its first point's."""
    from feedbackq import cli

    for name in (
        "ising_41_run.json",
        "ising_41_spectrum.json",
        "ising_41_shots.json",
        "h2_spectrum.json",
        "h2_r_sweep.json",
        "mfi_run.json",
        "ising_scaling_sweep.json",
        "ising_seed_sweep.json",
    ):
        doc = json.loads((CONFIG_DIR / name).read_text())
        if "sweep" in doc:
            payload = cli._sweep_payloads(doc, CONFIG_DIR)[0]
            experiments = cli._point_experiments(payload)
        else:
            experiments = [cli.Experiment(doc, CONFIG_DIR)]
        assert experiments and all(exp.controls for exp in experiments), name


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
def test_shipped_configs_set_only_known_keys(path):
    """Every block a shipped config sets passes the key check."""
    from feedbackq import cli

    doc = cli._value(cli._load_json(path), "", dict)
    for block in ("model", "feedback", "alpha", "sweep"):
        cli._field(doc, block, "", dict, None)
    cli._field(doc, "stages", "", [dict], None)


@pytest.mark.parametrize("command, doc, key, nearest", [
    ("run", dict(bench_doc(), seeed=3), "seeed", "seed"),
    ("run", bench_doc(model=dict(bench_doc()["model"], feilds=[1.0, 2.0])), "model.feilds",
     "fields"),
    ("run", bench_doc(feedback=dict(FEEDBACK, bakend="grad_fd")), "feedback.bakend", "backend"),
    ("run", bench_doc(alpha={"strategy": "fixed", "valeus": [7.0]}), "alpha.valeus", "values"),
    ("spectrum", bench_doc(count=2, stages=[{}, {"dpeth": 5}]), "stages[1].dpeth", "depth"),
    ("sweep", dict(ising_sweep_doc("seed", [0]), sweep={"axis": "seed", "values": [0],
                                                        "instance": 2}),
     "sweep.instance", "instances"),
])
def test_misspelt_config_key_is_a_config_error(tmp_path, capsys, command, doc, key, nearest):
    """A key outside its block's set exits 2, names itself and its nearest
    valid key, and writes no output."""
    cfg = write_doc(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "typo")]) == EXIT_CONFIG
    assert f"unknown key '{key}'; did you mean '{nearest}'?" in capsys.readouterr().err
    assert not list(tmp_path.glob("typo*"))


def test_spectrum_records_backend_shots_and_seed(tmp_path):
    """The spectrum JSON says how its energies were estimated, as a run summary does."""
    doc = json.loads((CONFIG_DIR / "h2_spectrum.json").read_text())
    doc["feedback"]["backend"] = "overlap_hadamard"
    cfg = write_doc(tmp_path, doc)
    argv = ["spectrum", "--config", cfg, "--out", str(tmp_path / "sampled"), "--shots", "100"]
    assert main(argv) == EXIT_OK
    summary = json.loads((tmp_path / "sampled_spectrum.json").read_text())
    assert (summary["backend"], summary["shots"], summary["seed"]) == ("overlap_hadamard", 100, 0)

    cfg = str(CONFIG_DIR / "h2_spectrum.json")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "exact")]) == EXIT_OK
    summary = json.loads((tmp_path / "exact_spectrum.json").read_text())
    assert (summary["backend"], summary["shots"], summary["seed"]) == ("exact", None, 0)


def test_sweep_seed_axis_honours_exact_and_shots(tmp_path):
    """--exact and --shots reach every point, as they reach a single run."""
    doc = {
        "seed": 3,
        "model": {"family": "ising_random", "n": 3, "instance_seed": 0},
        "controls": "x_mixer",
        "target": 1,
        "alpha": {"strategy": "fixed", "values": [4.0]},
        "feedback": {
            "dt": 0.05, "gains": [1.0], "depth": 20,
            "backend": "overlap_hadamard", "shots": 50,
        },
        "sweep": {"axis": "seed", "values": [1]},
    }
    cfg = write_doc(tmp_path, doc)

    def sweep_row(name, *flags):
        argv = ["sweep", "--config", cfg, "--out", str(tmp_path / name), *flags]
        assert main(argv) == EXIT_OK
        (row,) = json.loads((tmp_path / f"{name}_sweep.json").read_text())["rows"]
        return row

    plain = sweep_row("plain")
    exact = sweep_row("exact", "--exact")
    more = sweep_row("more", "--shots", "5000")
    run_doc = dict(doc, model=dict(doc["model"], instance_seed=1))
    run_cfg = write_doc(tmp_path, run_doc, name="point.json")
    assert main(["run", "--config", run_cfg, "--out", str(tmp_path / "run"), "--exact"]) == EXIT_OK
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert exact["mean_fidelity"] == summary["final_fidelities"][1]
    assert exact["mean_energy"] == summary["final_energy"]
    assert exact != plain
    assert more != plain


def test_stage_overrides_keep_parent_config(tmp_path, monkeypatch):
    """A stage changes only initial_state, dt, depth, trotter_slices and gains;
    a field it leaves out keeps its top-level value."""
    from feedbackq import cli

    feedback = {
        "dt": 0.08, "gains": [1.5, 1.5], "depth": 4, "backend": "grad_fd",
        "shots": 200, "abort_on_increase": 10.0,
    }
    stages = [
        {"dt": 0.05, "depth": 3, "trotter_slices": 2, "gains": 0.5},
        {"initial_state": "01", "gains": [2.0, 3.0]},
    ]
    doc = bench_doc(feedback=feedback, stages=stages, count=2, initial_state="10")
    cfg = write_doc(tmp_path, doc)

    seen, starts = [], []
    original = cli.deflate_spectrum

    def recording(h0, h_ctrls, stages, alphas, **kwargs):
        seen.extend(config for _, config in stages)
        starts.extend(start.amps for start, _ in stages)
        return original(h0, h_ctrls, stages, alphas, **kwargs)

    monkeypatch.setattr(cli, "deflate_spectrum", recording)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "spec")]) == EXIT_OK

    parent = cli.parse_feedback(feedback, 2, 7)
    assert parent.budget.shots == 200
    assert seen == [
        dataclasses.replace(parent, dt=0.05, depth=3, trotter_slices=2, gains=(0.5, 0.5)),
        dataclasses.replace(parent, gains=(2.0, 3.0)),
    ]
    assert np.array_equal(starts[0], StateVector.basis(2, "10").amps)
    assert np.array_equal(starts[1], StateVector.basis(2, "01").amps)

    for bad in ({"dt": 0}, {"gains": [1.0, 1.0, 1.0]}, {"dt": "fast"}):
        broken = write_doc(tmp_path, dict(doc, stages=[bad, {}]), name="bad.json")
        assert main(["spectrum", "--config", broken, "--out", str(tmp_path / "bad")]) == EXIT_CONFIG


def _sampled(doc):
    doc["feedback"].update(backend="overlap_hadamard", shots=50)
    return doc


# One config per subcommand, sampled so that the seed and the shots matter.
FLAG_DOCS = {
    "run": _sampled(bench_doc(feedback=dict(FEEDBACK))),
    "spectrum": _sampled(bench_doc(feedback=dict(FEEDBACK), count=2, alpha={"strategy": "bound"})),
    "sweep": _sampled(ising_sweep_doc("seed", [2, 3])),
    "validate": _sampled(bench_doc(feedback=dict(FEEDBACK))),
}
# Each flag, with the config edit it stands for.
FLAG_EDITS = {
    "seed": (["--seed", "3"], lambda doc: doc.update(seed=3)),
    "out": (["--out", "other/res"], lambda doc: doc.update(output="other/res")),
    "shots": (["--shots", "500"], lambda doc: doc["feedback"].update(shots=500)),
    "exact": (["--exact"], lambda doc: doc["feedback"].update(shots=None)),
    "count": (["--count", "3"], lambda doc: doc.update(count=3)),
    "axis": (["--axis", "n"], lambda doc: doc["sweep"].update(axis="n")),
}


def _outputs(root):
    """Every file under `root`: CSV as bytes, JSON parsed without its wall time."""
    files = {}
    for path in sorted(root.rglob("*.*")):
        name = path.relative_to(root)
        if path.suffix == ".json":
            files[name] = json.loads(path.read_text())
            files[name].pop("wall_time_s", None)
        else:
            files[name] = path.read_bytes()
    return files


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command in FLAG_DOCS for flag in ("seed", "out", "shots", "exact")]
    + [("spectrum", "count"), ("sweep", "axis")],
)
def test_flag_matches_its_config_edit(tmp_path, monkeypatch, command, flag):
    """A flag gives the same outputs as the config field it sets."""
    argv, edit = FLAG_EDITS[flag]
    doc = dict(copy.deepcopy(FLAG_DOCS[command]), output="res/x")
    edited = copy.deepcopy(doc)
    edit(edited)
    results = []
    for name, config, flags in (("flag", doc, argv), ("edit", edited, [])):
        cfg = write_doc(tmp_path, config, name=f"{name}.json")
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main([command, "--config", cfg, *flags]) == EXIT_OK
        results.append(_outputs(tmp_path / name))
    assert results[0] and results[0] == results[1]


def test_null_gains_mean_unit_gain(tmp_path):
    runs = {}
    for name, gains in (("null", None), ("ones", [1.0, 1.0])):
        doc = bench_doc(feedback={"dt": 0.08, "gains": gains, "depth": 10})
        cfg = write_doc(tmp_path, doc, name=f"{name}.json")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
        runs[name] = (tmp_path / f"{name}_trace.csv").read_bytes()
    assert runs["null"] == runs["ones"]

    short = write_doc(tmp_path, bench_doc(feedback={"dt": 0.08, "gains": [1.0], "depth": 10}))
    assert main(["run", "--config", short, "--out", str(tmp_path / "short")]) == EXIT_CONFIG


def sweep_rows(tmp_path, doc, name, *flags):
    cfg = write_doc(tmp_path, doc, name=f"{name}.json")
    argv = ["sweep", "--config", cfg, "--out", str(tmp_path / name), *flags]
    assert main(argv) == EXIT_OK
    return json.loads((tmp_path / f"{name}_sweep.json").read_text())["rows"]


def test_sweep_n_axis_honours_the_config(tmp_path):
    """The n axis runs the config's feedback block, --shots and --exact."""
    doc = ising_sweep_doc("n", [3], backend="overlap_hadamard", shots=20)
    plain = sweep_rows(tmp_path, doc, "plain")
    exact = sweep_rows(tmp_path, doc, "exact", "--exact")
    fewer = sweep_rows(tmp_path, doc, "fewer", "--shots", "5")
    assert plain != exact and plain != fewer and exact != fewer
    assert exact == sweep_rows(tmp_path, ising_sweep_doc("n", [3], backend="exact"), "backend")


def test_sweep_n_axis_matches_the_library(tmp_path):
    """An n row is tune_time_step over run_fqae on the derived instances."""
    from feedbackq import (
        FeedbackConfig, Shift, ShiftedOperator, StateVector, build_ising, derive_seed,
        random_ising, reference_spectrum, run_fqae, standard_controls, tune_time_step,
    )

    n, count, ladder, tol = 4, 3, [0.3, 0.1, 0.02], 1e-6
    doc = ising_sweep_doc("n", [n], depth=40)
    doc["sweep"].update(instances=count, dt_candidates=ladder, monotone_tolerance=tol)
    (row,) = sweep_rows(tmp_path, doc, "nrow")

    probs = []
    for i in range(count):
        h0 = build_ising(random_ising(n, derive_seed(5, "sweep", n, i)))
        ref = reference_spectrum(h0, count=2)
        probs.append((h0, ShiftedOperator(h0, [Shift(4.0, ref[0][1], ref[0][0])]), ref[1][1]))
    ctrls = standard_controls("x_mixer", n)

    def run_at(dt):
        cfg = FeedbackConfig(dt=dt, gains=(1.0,), depth=40, abort_on_increase=tol)
        return [run_fqae(h0, ctrls, p_op, StateVector.plus(n), cfg, track_states=[tgt])
                for h0, p_op, tgt in probs]

    dt, traces = tune_time_step(run_at, ladder, tolerance=tol)
    fids = np.array([t.fidelities[-1, 0] for t in traces])
    assert row == {
        "axis": "n",
        "value": n,
        "instances": count,
        "dt": dt,
        "mean_fidelity": float(fids.mean()),
        "fidelity_se": float(fids.std(ddof=1) / math.sqrt(count)),
        "mean_energy": float(np.mean([t.energy[-1] for t in traces])),
    }


@pytest.mark.parametrize("axis", ["seed", "n"])
def test_sweep_rejects_non_numeric_values(tmp_path, axis):
    cfg = write_doc(tmp_path, ising_sweep_doc(axis, ["abc", 1]))
    out = tmp_path / "bad"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not (tmp_path / "bad_sweep.csv").exists()


def test_sweep_retired_keys_must_repeat_the_config(tmp_path, capsys):
    """sweep.alpha/gain/depth pass only where they equal alpha/feedback."""
    doc = ising_sweep_doc("n", [2])
    doc["sweep"].update(alpha=4.0, gain=1.0, depth=20)
    assert sweep_rows(tmp_path, doc, "same")[0]["instances"] == 2
    for key, value in (("alpha", 2.0), ("gain", 0.5), ("depth", 30)):
        changed = dict(doc, sweep=dict(doc["sweep"], **{key: value}))
        cfg = write_doc(tmp_path, changed, name=f"{key}.json")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / key)]) == EXIT_CONFIG
        assert f"'sweep.{key}'" in capsys.readouterr().err


def test_ground_state_run_skips_the_alpha_search(tmp_path, monkeypatch):
    """Target 0 uses no shift: an iterative alpha starts no extra run."""
    from feedbackq import cli

    calls = []
    original = cli.run_fqae

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "run_fqae", counting)
    cfg = write_doc(tmp_path, bench_doc(target=0, alpha={"strategy": "iterative"}))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "ground")]) == EXIT_OK
    assert len(calls) == 1


def test_sweep_point_propagates_untyped_errors(tmp_path, monkeypatch):
    """Only config and runtime failures become NaN rows; a bug propagates."""
    from feedbackq import cli

    def broken(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "_run_target", broken)
    cfg = write_doc(tmp_path, ising_sweep_doc("seed", [0, 1]))
    with pytest.raises(KeyError):
        main(["sweep", "--config", cfg, "--out", str(tmp_path / "bug")])
    assert not (tmp_path / "bug_sweep.csv").exists()


@pytest.mark.parametrize("depth", [1, 40])
def test_hopeless_alpha_search_stops_after_two_runs(tmp_path, monkeypatch, depth):
    """From the ground state no control is ever applied, so no doubling can help."""
    from feedbackq import cli

    calls = []
    original = cli.run_fqae

    def counting(*args, **kwargs):
        calls.append(args[2].alphas)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "run_fqae", counting)
    doc = bench_doc(initial_state="11", alpha={"strategy": "iterative"},
                    feedback={"dt": 0.08, "gains": [1.5, 1.5], "depth": depth})
    cfg = write_doc(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "alpha")]) == EXIT_RUNTIME
    summary = json.loads((tmp_path / "alpha_summary.json").read_text())
    assert summary["error"] == "no sufficient alpha found within 32 doublings"
    assert summary["layers_completed"] == depth
    assert [tuple(a) for a in calls] == [(1.0,), (2.0,)]


def test_fourteen_qubit_mfi_run_uses_a_matrix_free_spectrum(tmp_path, monkeypatch):
    """Past the dense limit a count-bounded spectrum still resolves, to small residuals."""
    from feedbackq import cli
    from feedbackq.states import apply_pauli

    seen = []
    original = cli.reference_spectrum

    def recording(h, count=None):
        pairs = original(h, count=count)
        seen.append((h, pairs))
        return pairs

    monkeypatch.setattr(cli, "reference_spectrum", recording)
    doc = {
        "model": {"family": "mfi_random", "n": 14, "instance_seed": 0},
        "controls": "global_xyz",
        "feedback": {"dt": 0.01, "gains": [1.0, 1.0, 1.0], "depth": 3, "backend": "exact"},
        "alpha": {"strategy": "fixed", "values": [7.0]},
        "target": 1,
    }
    cfg = write_doc(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "mfi14")]) == EXIT_OK
    summary = json.loads((tmp_path / "mfi14_summary.json").read_text())
    assert summary["layers_completed"] == 3
    (h, pairs), = seen
    assert h.n == 14 and len(pairs) == 2 and pairs[0][0] < pairs[1][0]
    for energy, vec in pairs:
        hv = sum(coeff.real * apply_pauli(vec, ops) for ops, coeff in h.items())
        assert np.linalg.norm(hv - energy * vec.amps) <= 1e-10

