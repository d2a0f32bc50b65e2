"""Self-test of the end-to-end benchmark on small grids.

The grids are cut to two Table IV workloads (12 Fig 21 cells) so the file
runs in well under a minute::

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.runner.sweep as sweep
from repro.experiments import fig21_main_result
from repro.experiments.common import ExperimentRunner
from repro.runner import SweepRunner
from repro.runner.sweep import available_cpus
from repro.runner.trace_store import TraceStore
from repro.sim.engine import Simulator
from repro.workloads import get_workload

import compare
import grids
import harness
import run
from fidelity import PAPER_OVERHEAD_PCT, average_slowdowns, fidelity_err_pp

ROOT = Path(__file__).resolve().parents[2]
SMALL = ("fir", "matrixtranspose")
SEED = 1


def small(name: str) -> grids.Grid:
    return grids.build(name, SEED, workloads=SMALL)


@pytest.fixture(scope="module")
def store(tmp_path_factory) -> str:
    root = str(tmp_path_factory.mktemp("store"))
    setup = harness.setup(small("fig21"), root)
    assert setup["traces"] == len(SMALL)
    return root


@pytest.fixture(scope="module")
def traced(store, tmp_path_factory) -> dict:
    post = Simulator.__dict__["post"]
    result = harness.measure(
        small("fig21"), store, str(tmp_path_factory.mktemp("cells")), seconds=0, trace=True
    )
    assert Simulator.__dict__["post"] is post, "the tracer must restore what it patched"
    return result


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_traced_run_gives_the_untraced_digest(traced):
    (untraced,) = traced["reps"]
    (rep,) = traced["traced_reps"]
    assert untraced["error"] is None and rep["error"] is None
    assert rep["digest"] == untraced["digest"]
    assert len(rep["cells"]) == len(small("fig21").jobs)


def test_layer_self_times_sum_to_the_traced_wall(traced):
    rep = traced["traced_reps"][0]
    layers, counts = run.layer_totals(rep)
    assert sum(self_s for self_s, _spans in layers.values()) == pytest.approx(
        rep["wall_s"], rel=0.05
    )
    for layer in ("sim", "gpu", "interconnect", "secure", "system", "runner"):
        assert layers[layer][0] > 0, layer
    assert counts["store.disk"] == len(SMALL)


def test_pool_digest_equals_serial_digest(store, traced, tmp_path):
    result = harness.measure(small("fig21-par2"), store, str(tmp_path), seconds=0)
    (rep,) = result["reps"]
    assert rep["digest"] == traced["reps"][0]["digest"]
    assert result["pool_mismatch"] == []
    if available_cpus() > 1:
        assert rep["mode"] == "parallel"
    assert len(rep["cell_s"]) == len(small("fig21").jobs)  # worker cells are timed too


def test_raising_cell_counts_as_failed_and_still_prints(store, tmp_path, monkeypatch, capsys):
    real = sweep.execute_job

    def flaky(job, **kwargs):
        if job.spec.name == "fir" and job.config.security.batching:
            raise RuntimeError("injected cell failure")
        return real(job, **kwargs)

    monkeypatch.setattr(sweep, "execute_job", flaky)
    result = harness.measure(small("fig21"), store, str(tmp_path), seconds=0)
    assert not run.emit("fig21", SEED, False, [1.0], {}, result)
    printed = _last_json(capsys)
    assert printed["correct"] is False
    assert printed["failed"] == printed["attempted"] == len(small("fig21").jobs)
    assert "wall_s" in printed["metrics"]


def test_analytic_violation_counts_as_failed(store, tmp_path, monkeypatch, capsys):
    target = small("fig21").jobs[3]
    real = grids.check_report

    def strict(cell, report):
        found = real(cell, report)
        return found + [SimpleNamespace(oracle="test.injected")] if cell.job == target else found

    monkeypatch.setattr(grids, "check_report", strict)
    result = harness.measure(small("fig21"), store, str(tmp_path), seconds=0)
    assert not run.emit("fig21", SEED, False, [1.0], {}, result)
    out = capsys.readouterr().out
    assert f"fig21 FAILED {target.describe()}: test.injected" in out
    printed = json.loads(out.strip().splitlines()[-1])
    assert (printed["attempted"], printed["failed"]) == (len(small("fig21").jobs), 1)


@pytest.mark.parametrize(
    "name, workloads, scale",
    [("under-attack", ("fir",), None), ("high-rpki", ("matrixtranspose",), 0.1)],
)
def test_other_grids_pass_their_checks(name, workloads, scale):
    grid = grids.build(name, SEED, scale=scale, workloads=workloads)
    reports = SweepRunner(jobs=1, trace_store=TraceStore(None)).run_jobs(grid.jobs)
    assert grids.cell_errors(grid, reports) == []
    assert all((r.attack_report is not None) == grid.attacked for r in reports)
    if grid.attacked:
        assert harness.report_counts(reports)["attacks_detected"] > 0


def test_printed_metrics_are_those_declared(traced, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup = {"accesses": 1, "layers": {"workloads": [0.1, 1]}}
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        assert run.emit("fig21", SEED, trace, [0.4, 0.5, 0.6], setup, traced)
        out = capsys.readouterr().out.strip().splitlines()
        printed = json.loads(out[-1])["metrics"]
        declared = [(m["name"], m["unit"]) for m in spec[section]]
        assert [(name, m["unit"]) for name, m in printed.items()] == declared
        ungraded = [("cell_s_p50", "s"), ("cell_s_p90", "s"), ("error_rate", "ratio")]
        ungraded += [("digest", "sha256"), ("fidelity_err_pp", "pp")]
        for name, unit in declared + ungraded:
            assert any(
                line.startswith(f"fig21 {name} ") and line.endswith(f" {unit}") for line in out
            ), name


def test_end_to_end_metrics_are_never_zero(traced):
    metrics = run.end_to_end_metrics([0.4, 0.5, 0.6], traced)
    assert all(value > 0 for value in metrics.values()), metrics


def test_fidelity_averages_match_the_fig21_harness(store, monkeypatch, tmp_path):
    grid = small("fig21")
    reports = SweepRunner(jobs=1, trace_store=TraceStore(store)).run_jobs(grid.jobs)
    ours = average_slowdowns(grid.labels, grid.jobs, reports)
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
    main = fig21_main_result.run(
        ExperimentRunner(
            seed=SEED,
            scale=grid.jobs[0].scale,
            workloads=[get_workload(w) for w in SMALL],
            use_cache=False,
        )
    )
    assert ours.keys() == PAPER_OVERHEAD_PCT.keys()
    for key, value in ours.items():
        assert value == pytest.approx(main.average(key), rel=1e-12), key
    exact = {key: 1.0 + pct / 100.0 for key, pct in PAPER_OVERHEAD_PCT.items()}
    assert fidelity_err_pp(exact) == pytest.approx(0.0, abs=1e-9)


def test_compare_classifies_and_applies_the_gain_rule():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    assert compare.classify(parent, [x * 1.02 for x in parent], "lower", 0.1) == "ok"
    assert compare.classify(parent, [x * 1.3 for x in parent], "lower", 0.1) == "worse"
    assert compare.classify(parent, [x * 1.3 for x in parent], "higher", 0.1) == "ok"
    noisy = [8.0, 12.0, 9.0, 13.0, 10.0, 14.0, 7.0, 11.0, 12.5, 8.5]
    assert compare.classify(parent, noisy, "lower", 0.1) == "unresolved"
    faster = [x * 0.8 for x in parent]
    assert compare.claim(parent, faster, "lower")[0]
    assert not compare.claim(parent, faster[:8] + parent[8:], "lower")[0]  # 8/10 pairs
    assert not compare.claim(parent, [x * 0.999 for x in parent], "lower")[0]  # gap < IQR


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        Path(__file__).parent,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fig21", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
