"""Observability layer: metrics registry, exports, determinism.

The contract under test (see ``docs/OBSERVABILITY.md``): every scheme
emits one uniform, validated metric namespace; and the snapshot is a pure
function of the job description, so serial / parallel / cache-hit runs
export byte-identical metrics files.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.configs import scheme_config
from repro.obs import (
    KNOWN_NAMESPACES,
    MetricsRegistry,
    diff_metrics,
    encode_metric,
    metrics_to_jsonl,
    read_metrics,
    validate_metrics,
    validate_name,
    write_metrics_jsonl,
)
from repro.runner import ResultCache, SweepJob, SweepRunner, execute_job
from repro.sim.stats import Histogram, RatioStat
from repro.workloads import get_workload

SCALE = 0.1


def _job(scheme: str, **fault) -> SweepJob:
    config = scheme_config(scheme)
    if fault:
        config = config.with_fault(**fault)
    return SweepJob(spec=get_workload("fir"), config=config, seed=1, scale=SCALE)


def _adv_job(scheme: str, fault: dict | None = None, **adversary) -> SweepJob:
    config = scheme_config(scheme)
    if fault:
        config = config.with_fault(**fault)
    if adversary:
        config = config.with_adversary(**adversary)
    return SweepJob(spec=get_workload("fir"), config=config, seed=1, scale=SCALE)


class TestNameValidation:
    def test_good_names_pass(self):
        for name in ("otp.send", "fault.mac_reject", "engine.pushes", "otp.send.hit"):
            validate_name(name)

    def test_malformed_names_rejected(self):
        for name in ("otp", "Otp.send", "otp.", ".send", "otp send", "otp.Send"):
            with pytest.raises(ValueError):
                validate_name(name)

    def test_unknown_namespace_rejected(self):
        with pytest.raises(ValueError, match="unknown namespace"):
            validate_name("mystery.value")


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        c = reg.counter("msg.sent")
        c.add(3)
        assert reg.counter("msg.sent") is c
        assert reg.counter("msg.sent").value == 3
        assert list(reg.snapshot()) == ["msg.sent"]

    def test_type_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("msg.sent")
        with pytest.raises(TypeError):
            reg.gauge("msg.sent")

    def test_register_adopts_component_primitive(self):
        reg = MetricsRegistry()
        hist = Histogram("burst16", edges=[40, 160])
        reg.register("burst.accum16", hist)
        reg.register("burst.accum16", hist)  # same object: no-op
        hist.record(50)  # adopted, not copied: the snapshot reads it live
        assert reg.snapshot()["burst.accum16"]["counts"] == [0, 1, 0]
        with pytest.raises(ValueError):
            reg.register("burst.accum16", Histogram("other", edges=[40]))

    def test_register_rejects_unsupported_primitive(self):
        with pytest.raises(TypeError):
            MetricsRegistry().register("run.thing", object())

    def test_snapshot_is_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.counter("traffic.bytes").add(7)
        reg.gauge("run.rpki").set(1.5)
        reg.register("otp.send", RatioStat("otp", counts={"hit": 2, "miss": 1}))
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["traffic.bytes"] == {"type": "counter", "value": 7}
        assert snap["run.rpki"] == {"type": "gauge", "value": 1.5}
        assert snap["otp.send"] == {"type": "ratio", "counts": {"hit": 2, "miss": 1}}
        # snapshot must be JSON-safe as-is
        json.dumps(snap)

    def test_encode_histogram_payload(self):
        hist = Histogram("h", edges=[10, 20])
        for v in (5, 15, 25):
            hist.record(v)
        payload = encode_metric(hist)
        assert payload == {
            "type": "histogram",
            "edges": [10, 20],
            "counts": [1, 1, 1],
            "total": 3,
            "sum": 45,
        }


class TestExport:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.counter("traffic.bytes").add(100)
        reg.gauge("run.rpki").set(0.25)
        hist = Histogram("h", edges=[40])
        hist.record(10)
        reg.register("burst.accum16", hist)
        return reg.snapshot()

    def test_jsonl_round_trip(self, tmp_path):
        snap = self._snapshot()
        path = tmp_path / "m.jsonl"
        assert write_metrics_jsonl(snap, path) == len(snap)
        assert read_metrics(path) == snap

    def test_jsonl_rendering_is_deterministic(self):
        snap = self._snapshot()
        assert metrics_to_jsonl(snap) == metrics_to_jsonl(dict(reversed(list(snap.items()))))

    def test_validate_clean_snapshot(self):
        assert validate_metrics(self._snapshot()) == []

    def test_validate_catches_violations(self):
        errors = validate_metrics(
            {
                "mystery.value": {"type": "counter", "value": 1},
                "not_dotted": {"type": "counter", "value": 1},
                "run.bad_counter": {"type": "counter", "value": "many"},
                "run.bad_type": {"type": "sparkline", "value": 1},
                "burst.bad_hist": {
                    "type": "histogram",
                    "edges": [10],
                    "counts": [1, 2],
                    "total": 99,
                },
            }
        )
        assert len(errors) == 5

    def test_diff_metrics(self):
        a = self._snapshot()
        b = dict(a)
        b["traffic.bytes"] = {"type": "counter", "value": 999}
        del b["run.rpki"]
        b["msg.sent"] = {"type": "counter", "value": 1}
        lines = diff_metrics(a, b)
        assert any(line.startswith("~ traffic.bytes") for line in lines)
        assert any(line.startswith("- run.rpki") for line in lines)
        assert any(line.startswith("+ msg.sent") for line in lines)
        assert diff_metrics(a, a) == []


class TestCli:
    @pytest.fixture()
    def export(self, tmp_path):
        path = tmp_path / "m.jsonl"
        reg = MetricsRegistry()
        reg.counter("traffic.bytes").add(100)
        reg.counter("msg.sent").add(7)
        write_metrics_jsonl(reg.snapshot(), path)
        return path

    def test_metrics_check_ok(self, export, capsys):
        assert main(["metrics", "check", str(export)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_metrics_check_fails_on_unknown_namespace(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "mystery.value", "type": "counter", "value": 1}\n')
        assert main(["metrics", "check", str(path)]) == 1
        assert "unknown namespace" in capsys.readouterr().err

    def test_metrics_dump_and_tail(self, export, capsys):
        assert main(["metrics", "dump", str(export)]) == 0
        dumped = capsys.readouterr().out.strip().splitlines()
        assert len(dumped) == 2
        assert main(["metrics", "tail", str(export), "-n", "1"]) == 0
        tailed = capsys.readouterr().out.strip().splitlines()
        assert tailed == dumped[-1:]

    def test_metrics_diff_exit_codes(self, export, tmp_path, capsys):
        assert main(["metrics", "diff", str(export), str(export)]) == 0
        other = tmp_path / "other.jsonl"
        reg = MetricsRegistry()
        reg.counter("traffic.bytes").add(1)
        write_metrics_jsonl(reg.snapshot(), other)
        capsys.readouterr()
        assert main(["metrics", "diff", str(export), str(other)]) == 1
        assert "traffic.bytes" in capsys.readouterr().out

    def test_run_writes_metrics_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        path = tmp_path / "run.jsonl"
        assert (
            main(
                ["run", "fir", "--scheme", "private", "--scale", "0.08",
                 "--metrics", str(path), "--no-cache"]
            )
            == 0
        )
        metrics = read_metrics(path)
        assert validate_metrics(metrics) == []
        assert "run.cycles" in metrics


#: what every simulated run must emit, regardless of scheme
CORE_METRICS = {
    "run.cycles",
    "run.remote_requests",
    "run.migrations",
    "run.rpki",
    "traffic.bytes",
    "traffic.base_bytes",
    "meta.bytes",
    "msg.sent",
    "msg.data_blocks",
    "engine.events",
    "engine.pushes",
    "engine.cancelled",
    "burst.accum16",
    "burst.accum32",
}


class TestUniformNamespace:
    @pytest.mark.parametrize(
        "scheme", ["unsecure", "private", "shared", "cached", "dynamic", "batching"]
    )
    def test_every_scheme_emits_core_namespace(self, scheme):
        report = execute_job(_job(scheme))
        assert CORE_METRICS <= set(report.metrics)
        assert validate_metrics(report.metrics) == []
        if scheme == "unsecure":
            assert not any(n.startswith("otp.") for n in report.metrics)
        else:
            assert {"otp.send", "otp.recv", "ack.sent", "batch.macs_sent"} <= set(
                report.metrics
            )
        if scheme == "dynamic":
            assert {
                "alloc.adjustments",
                "alloc.idle_intervals",
                "alloc.plans_applied",
            } <= set(report.metrics)

    def test_fault_run_emits_fault_metrics(self):
        report = execute_job(_job("private", drop_rate=0.05, corrupt_rate=0.05, seed=7))
        fault_names = {n for n in report.metrics if n.startswith("fault.")}
        assert "fault.drop" in fault_names
        assert validate_metrics(report.metrics) == []

    def test_fault_free_run_has_no_fault_metrics(self):
        report = execute_job(_job("private"))
        assert not any(n.startswith("fault.") for n in report.metrics)
        # rate-0 fault config is equally invisible
        report = execute_job(_job("private", drop_rate=0.0))
        assert not any(n.startswith("fault.") for n in report.metrics)

    def test_adversary_run_emits_adv_metrics(self):
        report = execute_job(_adv_job("private", flip_cipher_rate=0.05, seed=3))
        adv_names = {n for n in report.metrics if n.startswith("adv.")}
        assert "adv.injected" in adv_names
        assert "adv.detected" in adv_names
        assert report.metrics["adv.accepted_undetected"]["value"] == 0
        assert not any(n.startswith("fault.") for n in report.metrics)
        assert validate_metrics(report.metrics) == []

    def test_combined_fault_and_adversary_export_both_namespaces(self):
        report = execute_job(
            _adv_job(
                "private",
                fault={"drop_rate": 0.05, "corrupt_rate": 0.05, "seed": 7},
                flip_cipher_rate=0.03,
                replay_rate=0.02,
                seed=3,
            )
        )
        namespaces = {n.split(".", 1)[0] for n in report.metrics}
        assert "fault" in namespaces
        assert "adv" in namespaces
        assert report.metrics["adv.accepted_undetected"]["value"] == 0
        assert validate_metrics(report.metrics) == []

    def test_rate_zero_adversary_and_fault_export_neither(self):
        report = execute_job(_adv_job("private", fault={"drop_rate": 0.0}, flip_cipher_rate=0.0))
        namespaces = {n.split(".", 1)[0] for n in report.metrics}
        assert "fault" not in namespaces
        assert "adv" not in namespaces
        # and the export is byte-identical to the pristine config's
        pristine = execute_job(_job("private"))
        assert metrics_to_jsonl(report.metrics) == metrics_to_jsonl(pristine.metrics)

    def test_namespaces_used_are_known(self):
        report = execute_job(_job("batching"))
        assert {n.split(".", 1)[0] for n in report.metrics} <= KNOWN_NAMESPACES

    def test_metrics_match_report_fields(self):
        report = execute_job(_job("batching"))
        assert report.metrics["run.cycles"]["value"] == report.execution_cycles
        assert report.metrics["traffic.bytes"]["value"] == report.traffic_bytes
        assert report.metrics["meta.bytes"]["value"] == report.meta_traffic_bytes
        assert report.metrics["run.rpki"]["value"] == report.rpki
        assert report.metrics["ack.sent"]["value"] == report.acks_sent
        assert report.metrics["engine.events"]["value"] == report.events_processed


class TestMetricsDeterminism:
    def _grid(self):
        # four cells: enough pending work for a two-worker sweep to take the pool
        return [_job(scheme) for scheme in ("unsecure", "private", "dynamic", "batching")]

    def test_serial_parallel_cached_metrics_bit_identical(self, tmp_path, four_cpus):
        grid = self._grid()
        serial = SweepRunner(jobs=1).run_jobs(grid)
        par_runner = SweepRunner(jobs=2)
        parallel = par_runner.run_jobs(grid)
        assert par_runner.stats.parallel_runs == len(grid)

        cache = ResultCache(tmp_path / "cache")
        SweepRunner(jobs=1, cache=cache).run_jobs(grid)  # cold: populates
        warm = SweepRunner(jobs=1, cache=cache)
        cached = warm.run_jobs(grid)
        assert warm.stats.cache_hits == len(grid)

        for s, p, c in zip(serial, parallel, cached):
            assert metrics_to_jsonl(s.metrics) == metrics_to_jsonl(p.metrics)
            assert metrics_to_jsonl(s.metrics) == metrics_to_jsonl(c.metrics)

    def test_cached_export_file_identical_to_live(self, tmp_path):
        job = _job("batching")
        cache = ResultCache(tmp_path / "cache")
        live = SweepRunner(jobs=1, cache=cache).run_jobs([job])[0]
        replay = SweepRunner(jobs=1, cache=cache).run_jobs([job])[0]
        live_path = tmp_path / "live.jsonl"
        replay_path = tmp_path / "replay.jsonl"
        write_metrics_jsonl(live.metrics, live_path)
        write_metrics_jsonl(replay.metrics, replay_path)
        assert live_path.read_bytes() == replay_path.read_bytes()
