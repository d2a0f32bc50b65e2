"""Ablation and extension study tests (small scale)."""

import pytest

from repro.experiments import ablations
from repro.experiments.common import ExperimentRunner
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def runner():
    workloads = [get_workload(n) for n in ("relu", "matrixmultiplication", "fir")]
    return ExperimentRunner(n_gpus=4, seed=1, scale=0.12, workloads=workloads)


class TestSweeps:
    def test_batch_size_sweep_structure(self, runner):
        result = ablations.batch_size_sweep(runner, sizes=(4, 16))
        assert set(result.averages) == {4, 16}
        assert all(v > 0.8 for v in result.averages.values())
        assert result.best() in (4, 16)
        assert "batch_size" in ablations.format_sweep(result)

    def test_interval_sweep_distinct_configs(self, runner):
        result = ablations.interval_sweep(runner, intervals=(250, 4000))
        # the memoization fix: different intervals are different configs;
        # values may coincide numerically but must both be present
        assert set(result.averages) == {250, 4000}

    def test_migration_threshold_sweep(self, runner):
        result = ablations.migration_threshold_sweep(runner, thresholds=(4, 32))
        assert set(result.averages) == {4, 32}


class TestIdealBound:
    def test_ideal_is_an_upper_bound(self, runner):
        result = ablations.ideal_bound(runner)
        assert result.average("ideal") <= result.average("dynamic") + 0.02
        assert result.average("ideal_batched") <= result.average("ideal") + 0.02
        assert "Ideal" in ablations.format_ideal_bound(result)


class TestExtensions:
    def test_extension_variants(self, runner):
        result = ablations.extensions_study(runner)
        ours_slow, ours_traffic = result.average("ours"), result.average_traffic("ours")
        comp_slow = result.average("ours+compressed_ctr")
        comp_traffic = result.average_traffic("ours+compressed_ctr")
        prot_slow = result.average("ours+protect_requests")
        prot_traffic = result.average_traffic("ours+protect_requests")
        # compressed counters remove bytes and never slow things down much
        assert comp_traffic < ours_traffic
        assert comp_slow <= ours_slow + 0.02
        # protecting requests costs both bandwidth and latency
        assert prot_traffic > ours_traffic
        assert prot_slow >= ours_slow - 0.02
        assert "variant" in ablations.format_extensions(result)
