"""Experiment-harness tests (small scale for speed)."""

import pytest

from repro.experiments import fig08_otp_sensitivity as fig08
from repro.experiments import fig09_prior_schemes as fig09
from repro.experiments import fig10_otp_distribution as fig10
from repro.experiments import fig11_overhead_breakdown as fig11
from repro.experiments import fig12_traffic
from repro.experiments import fig13_14_timelines as fig1314
from repro.experiments import fig15_16_burstiness as fig1516
from repro.experiments import fig21_main_result as fig21
from repro.experiments import fig26_aes_latency as fig26
from repro.experiments import hw_overhead, table1_storage
from repro.experiments.common import ExperimentRunner, format_table, geometric_mean
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def runner():
    # three representative workloads keep the matrix small
    workloads = [get_workload(n) for n in ("relu", "matrixmultiplication", "fir")]
    return ExperimentRunner(n_gpus=4, seed=1, scale=0.15, workloads=workloads)


class TestCommon:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_runner_memoizes(self, runner):
        from repro.configs import scheme_config

        spec = runner.workloads[0]
        r1 = runner.run(spec, scheme_config("unsecure"))
        r2 = runner.run(spec, scheme_config("unsecure"))
        assert r1 is r2  # cached object, no re-simulation

    def test_format_table_alignment(self):
        text = format_table("T", ["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "333" in lines[-1]


class TestTable1:
    def test_all_rows_generated(self):
        rows = table1_storage.run()
        assert len(rows) == 4 * 5
        assert "2.75 KB" in table1_storage.format_result(rows)

    def test_paper_anchor_cells(self):
        for (n, m), (kib, otps) in table1_storage.PAPER_VALUES.items():
            row = table1_storage.storage_row(n, m)
            assert row.total_kib == pytest.approx(kib, abs=0.02)
            assert row.total_entries == otps


class TestFigureHarnesses:
    def test_fig08_runs_and_orders(self, runner):
        result = fig08.run(runner, multipliers=(1, 4))
        assert result.average(1) >= result.average(4) - 0.05
        assert "OTP 1x" in fig08.format_result(result)

    def test_fig09_shared_is_worst(self, runner):
        result = fig09.run(runner)
        assert result.average("shared") > result.average("private")
        assert result.average("shared") > result.average("cached")
        assert "average" in fig09.format_result(result)

    def test_fig10_distributions_normalized(self, runner):
        result = fig10.run(runner, schemes=("private", "shared"))
        for scheme in result.schemes:
            for direction in ("send", "recv"):
                d = result.distributions[scheme][direction]
                assert d.hit + d.partial + d.miss == pytest.approx(1.0, abs=1e-6)
        assert "OTP_Hit" in fig10.format_result(result)

    def test_fig11_traffic_adds_overhead(self, runner):
        result = fig11.run(runner)
        assert result.average("traffic") >= result.average("secure_commu")

    def test_fig12_metadata_inflates_traffic(self, runner):
        result = fig12_traffic.run(runner, schemes=("private", "batching"))
        assert result.average_traffic("private") > 1.1
        assert result.average_traffic("batching") < result.average_traffic("private")
        for row in result.rows:
            assert 0 <= row.meta_share("private") < 0.5

    def test_fig13_14_timeline_structure(self, runner):
        result = fig1314.run(runner)
        assert result.n_buckets >= 1
        assert len(result.send_fraction) == result.n_buckets
        for series in result.dest_fractions.values():
            assert len(series) == result.n_buckets
        assert fig1314.pattern_drift(result) >= 0.0

    def test_fig15_16_fractions(self, runner):
        result = fig1516.run(runner)
        for fracs in result.burst16.values():
            assert abs(sum(fracs) - 1.0) < 1e-6 or sum(fracs) == 0.0
        assert 0.0 <= result.fraction_within_160(16) <= 1.0
        assert "Figure 15" in fig1516.format_result(result, 16)
        assert "Figure 16" in fig1516.format_result(result, 32)

    def test_fig21_headline_shapes(self, runner):
        result = fig21.run(runner)
        assert result.average("batching_4x") < result.average("private_4x")
        assert result.average("private_16x") < result.average("private_4x") + 0.01
        assert "average" in fig21.format_result(result)

    def test_fig26_latency_monotonicity(self, runner):
        result = fig26.run(runner, latencies=(10, 40))
        for scheme in fig26.SCHEME_KEYS:
            assert result.average((scheme, 10)) <= result.average((scheme, 40)) + 0.02

    def test_hw_overhead_anchors(self):
        o = hw_overhead.compute(4, 4)
        assert o.monitor_counter_bits == 512
        assert o.msgmac_storage_kib_per_gpu == pytest.approx(2.0)
        assert o.otp_buffer_kib_per_gpu == pytest.approx(2.75, abs=0.01)
