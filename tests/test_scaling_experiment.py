"""Scaling-experiment harness unit tests (tiny workload sets)."""

import pytest

from repro.experiments import fig24_25_scaling as scaling
from repro.experiments.common import ExperimentRunner
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def small_runner_8():
    workloads = [get_workload(n) for n in ("relu", "stencil2d")]
    return ExperimentRunner(n_gpus=8, seed=1, scale=0.1, workloads=workloads)


def test_runner_gpu_count_must_match(small_runner_8):
    with pytest.raises(ValueError):
        scaling.run(4, runner=small_runner_8)


def test_8gpu_structure(small_runner_8):
    result = scaling.run(8, runner=small_runner_8)
    assert result.n_gpus == 8
    assert [row.spec.abbr for row in result.rows] == ["relu", "st"]
    for row in result.rows:
        assert set(row.by_config) == set(result.keys) == {"private", "cached", "ours"}
    text = scaling.format_result(result)
    assert "Figure 24" in text
    assert "Ours improves" in text


def test_improvement_metric(small_runner_8):
    result = scaling.run(8, runner=small_runner_8)
    expected = result.average("private") / result.average("ours") - 1.0
    assert result.improvement_over("ours", "private") == pytest.approx(expected)


def test_16gpu_label():
    workloads = [get_workload("fir")]
    runner = ExperimentRunner(n_gpus=16, seed=1, scale=0.08, workloads=workloads)
    result = scaling.run(16, runner=runner)
    assert "Figure 25" in scaling.format_result(result)
