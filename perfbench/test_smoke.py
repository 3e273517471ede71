"""Small-size smoke test of every benchmark workload and of the span wrappers.

Runs in a few seconds per workload: smoke sizes (``measure(smoke=True)``), one
set-up probe, two timed operations. Full-size behaviour is checked by running the benchmark.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from perfbench import run, spans, workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _measure(name, trace):
    return run.measure(name, seed=3, seconds=0.0, trace=trace, smoke=True, probes=1, min_timed=2)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [name for name, _ in run.PER_LAYER]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name):
    result, lines = _measure(name, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert [m for m in result["metrics"]] == [name for name, _ in run.END_TO_END]
    for metric in result["metrics"].values():
        assert metric["value"] > 0 and math.isfinite(metric["value"])
    assert any(line.startswith("env ") for line in lines)


@pytest.mark.parametrize("name", ["smoother_p4_p8", "analytic_tables"])
def test_traced_counts_repeat_across_runs(name):
    first, lines = _measure(name, trace=True)
    second, _ = _measure(name, trace=True)
    assert first["correct"] and second["correct"], lines
    assert [m for m in first["metrics"]] == [name for name, _ in run.PER_LAYER]
    for key, unit in run.PER_LAYER:
        if unit in ("count", "bytes"):
            assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    if name == "analytic_tables":
        assert first["metrics"]["phase_process.spectrum.calls"]["value"] == 5004
        assert first["metrics"]["lg.solve_filter_covariance.calls"]["value"] == 10
    else:
        assert first["metrics"]["simulation.trial_steps"]["value"] == 36000
        assert first["metrics"]["simulation.alloc_peak_mb"]["value"] > 0


def test_tracer_records_self_time_and_restores_bindings():
    import phasetrack
    from phasetrack import bounds, lg, phase_process

    original = phase_process.spectrum
    system = lg.build_lg_system(4, 1.0, 1e4)
    tracer, _, elapsed = spans.traced(lambda: lg.covariance_set(system))
    assert bounds.spectrum is original and phasetrack.spectrum is original
    assert tracer.span_stat("lg.covariance_set", "calls") == 1
    assert tracer.span_stat("lg.solve_filter_covariance", "calls") == 1
    outer = tracer.span_stat("lg.covariance_set", "s")
    children = sum(tracer.span_stat(f"lg.{n}", "s") for n in
                   ("solve_filter_covariance", "retro_covariance", "smoother_covariance", "scale_covariance"))
    assert tracer.span_stat("lg.covariance_set", "self_s") == pytest.approx(outer - children, abs=1e-9)
    assert 0 < outer <= elapsed


def test_known_defect_row_is_reported_as_failed():
    p, grid = 8, 30.0
    closed = (4.0 * grid ** (p / (p - 1.0))) ** (-(p - 1.0) / p) / math.sin(math.pi / p)
    row = {
        "p": "8", "N_over_kappa": repr(grid ** (p / (p - 1.0))), "estimator": "smoother",
        "mse": repr(2.9e3 * closed / p), "stderr": repr(0.1 * closed), "n_trials": "64",
        "lg_filter_mse": repr(closed), "qcrb": repr(closed / p), "wiener_filter_mse": repr(closed),
    }
    check = workloads._check_sweep_row(row, kappa=1.0, trials=64)
    symptom, _ = workloads.KNOWN_DEFECTS[("smoother_p4_p8", check.id)]
    assert check.problems and all(problem.startswith(symptom) for problem in check.problems)


def _abc_row(grid, ratio, stderr_ratio, estimator="abc"):
    closed = (4.0 * grid**2) ** -0.5  # p = 2, kappa = 1, N = grid^2
    return {
        "p": "2", "N_over_kappa": repr(grid**2), "estimator": estimator,
        "mse": repr(ratio * closed), "stderr": repr(stderr_ratio * closed), "n_trials": "16",
        "lg_filter_mse": repr(closed), "qcrb": repr(closed / 2), "wiener_filter_mse": repr(closed),
    }


def test_abc_rows_have_an_accuracy_band():
    assert not workloads._check_sweep_row(_abc_row(3.0, 2.7, 0.8), kappa=1.0, trials=16).problems
    assert not workloads._check_sweep_row(_abc_row(30.0, 1.3, 0.15), kappa=1.0, trials=16).problems
    for grid, ratio in ((3.0, 20.0), (30.0, 2.1), (30.0, 0.3)):
        check = workloads._check_sweep_row(_abc_row(grid, ratio, 0.1, "abc:diverged"), kappa=1.0, trials=16)
        symptom, _ = workloads.KNOWN_DEFECTS[("abc_p2_grid", check.id)]
        assert any(not problem.startswith(symptom) for problem in check.problems), (grid, ratio)


def test_run_without_program_sources_exits_nonzero(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic_tables", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
