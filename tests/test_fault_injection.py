"""Link-fault injection and the secure channel's recovery protocol.

The contract under test (see ``docs/ROBUSTNESS.md``): with faults enabled,
secure schemes never deliver a corrupted block and never silently lose a
message — every injected fault is either recovered by retransmission or
reported in a structured :class:`LinkFailureError` — while the unsecure
fabric consumes the damage without noticing.  And at fault rate zero the
whole subsystem must be invisible: bit-identical reports and cache keys.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace
from functools import reduce

import pytest

from repro.configs import FaultConfig, SystemConfig, scheme_config
from repro.experiments.fig_adversary import adversary_overrides
from repro.interconnect.faults import FaultVerdict, LinkFailureError
from repro.interconnect.topology import Topology
from repro.runner import (
    ResultCache,
    SweepJob,
    SweepRunner,
    execute_job,
    job_key,
    report_from_dict,
    report_to_dict,
)
from repro.secure.adversary import LinkPerturbation
from repro.sim.stats import FaultStats
from repro.system import MultiGpuSystem
from repro.tracing import MessageTracer
from repro.workloads import get_workload

SCALE = 0.1


def faulted(scheme, **overrides):
    defaults = dict(drop_rate=0.02, corrupt_rate=0.02, duplicate_rate=0.005, delay_rate=0.005, seed=7)
    defaults.update(overrides)
    return scheme_config(scheme).with_fault(**defaults)


#: every attack class at once, at a composite rate of 4%
ALL_ATTACKS = adversary_overrides("all", 0.04, seed=1)


def run_fir(config, seed=1, scale=SCALE):
    return execute_job(SweepJob(get_workload("fir"), config, seed=seed, scale=scale))


class TestFaultConfig:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(drop_rate=-0.1)
        with pytest.raises(ValueError):
            FaultConfig(corrupt_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(drop_rate=0.6, corrupt_rate=0.6)

    def test_recovery_knob_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(ack_timeout=0)
        with pytest.raises(ValueError):
            FaultConfig(max_retries=-1)
        with pytest.raises(ValueError):
            FaultConfig(backoff_factor=0.5)
        with pytest.raises(ValueError):
            FaultConfig(backoff_max=10, ack_timeout=100)
        with pytest.raises(ValueError):
            FaultConfig(delay_cycles=-1)

    def test_enabled_needs_a_nonzero_rate(self):
        assert not FaultConfig().enabled
        assert not FaultConfig(ack_timeout=99, seed=5).enabled
        assert FaultConfig(drop_rate=0.01).enabled
        assert FaultConfig().total_rate == 0.0


class TestFaultStream:
    """The fault half of :class:`LinkPerturbation` verdicts."""

    @staticmethod
    def _verdicts(cfg: FaultConfig):
        perturb = LinkPerturbation(SystemConfig(fault=cfg), Topology(4))
        return lambda src, dst: perturb.decide(src, dst)[0]

    def test_deterministic_per_pair_sequence(self):
        cfg = FaultConfig(drop_rate=0.2, corrupt_rate=0.2, seed=3)
        one = self._verdicts(cfg)
        a = [one(1, 2) for _ in range(50)]
        another = self._verdicts(cfg)
        b = [another(1, 2) for _ in range(50)]
        assert a == b
        assert len(set(a)) > 1  # the stream actually varies

    def test_pairs_and_directions_are_independent_streams(self):
        cfg = FaultConfig(drop_rate=0.3, corrupt_rate=0.3, seed=1)
        decide = self._verdicts(cfg)
        fwd = [decide(1, 2) for _ in range(100)]
        # interleaving other pairs must not perturb the (1, 2) stream
        decide2 = self._verdicts(cfg)
        fwd2 = []
        for _ in range(100):
            decide2(2, 1)
            fwd2.append(decide2(1, 2))
            decide2(0, 3)
        assert fwd == fwd2

    def test_seed_changes_the_stream(self):
        def mk(seed):
            decide = self._verdicts(FaultConfig(drop_rate=0.5, seed=seed))
            return [decide(1, 2) for _ in range(64)]

        assert mk(1) != mk(2)

    def test_extreme_rates(self):
        all_drop = self._verdicts(FaultConfig(drop_rate=1.0))
        assert all(all_drop(1, 2) is FaultVerdict.DROP for _ in range(20))
        clean = self._verdicts(FaultConfig(drop_rate=0.0, corrupt_rate=0.0))
        assert all(clean(1, 2) is FaultVerdict.OK for _ in range(20))


def _leaf_paths(config, prefix=""):
    """Dotted path of every leaf field of a (nested) config dataclass."""
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            yield from _leaf_paths(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}"


def _with_leaf(config, path, value):
    head, _, rest = path.partition(".")
    if rest:
        value = _with_leaf(getattr(config, head), rest, value)
    return replace(config, **{head: value})


#: a valid alternative for every string leaf
_STRING_CHOICES = {"link.fabric": ("p2p", "ring"), "security.scheme": ("private", "dynamic")}


def _perturbed(path, value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return next(choice for choice in _STRING_CHOICES[path] if choice != value)
    if path.endswith("_rate"):
        return value + 0.01
    return value + 1


LEAF_BASES = {
    "plain": scheme_config("private"),
    "faulted": faulted("private"),
    "attacked": scheme_config("private").with_adversary(**ALL_ATTACKS),
}


@pytest.fixture(scope="module")
def leaf_baselines():
    return {}


class TestRateZeroInvisibility:
    """The subsystem must be undetectable when no fault rate is set."""

    @pytest.mark.parametrize("base", list(LEAF_BASES))
    @pytest.mark.parametrize("path", list(_leaf_paths(SystemConfig())))
    def test_every_config_leaf_is_keyed_or_inert(self, base, path, leaf_baselines):
        """Perturbing any leaf either changes the cache key or leaves the
        report unchanged: the cache can never serve a stale result."""
        config = LEAF_BASES[base]
        value = reduce(getattr, path.split("."), config)
        try:
            tweaked = _with_leaf(config, path, _perturbed(path, value))
        except ValueError:
            pytest.skip(f"{path}: validation rejects the perturbed value")
        spec = get_workload("fir")
        if job_key(SweepJob(spec, tweaked, seed=1, scale=0.05)) != job_key(
            SweepJob(spec, config, seed=1, scale=0.05)
        ):
            return
        if base not in leaf_baselines:
            leaf_baselines[base] = report_to_dict(run_fir(config, scale=0.05))
        assert report_to_dict(run_fir(tweaked, scale=0.05)) == leaf_baselines[base]

    def test_cache_key_ignores_dormant_fault_section(self):
        spec = get_workload("fir")
        base = scheme_config("private")
        key = job_key(SweepJob(spec, base, seed=1, scale=SCALE))
        # non-rate knobs (timeouts, seeds) don't matter while rates are zero
        tweaked = base.with_fault(ack_timeout=999, seed=42, max_retries=2)
        assert job_key(SweepJob(spec, tweaked, seed=1, scale=SCALE)) == key
        # any non-zero rate opts the section into the hash
        hot = base.with_fault(drop_rate=0.01)
        assert job_key(SweepJob(spec, hot, seed=1, scale=SCALE)) != key
        # and the injector seed then matters too
        assert job_key(
            SweepJob(spec, base.with_fault(drop_rate=0.01, seed=1), seed=1, scale=SCALE)
        ) != job_key(SweepJob(spec, hot, seed=1, scale=SCALE))

    def test_rate_zero_report_is_identical_and_has_no_fault_stats(self):
        clean = run_fir(scheme_config("private"))
        dormant = run_fir(scheme_config("private").with_fault(ack_timeout=999, seed=42))
        assert clean.fault_stats is None and dormant.fault_stats is None
        assert report_to_dict(clean) == report_to_dict(dormant)
        assert "fault_stats" not in report_to_dict(clean)


class TestUnsecureFabric:
    def test_silent_loss_and_corruption(self):
        report = run_fir(faulted("unsecure", drop_rate=0.05, corrupt_rate=0.05,
                                 duplicate_rate=0.0, delay_rate=0.0))
        stats = report.fault_stats
        assert stats.lost_messages == stats.drops_injected > 0
        assert stats.corrupted_deliveries == stats.corruptions_injected > 0
        assert stats.undetected > 0
        # no detection, no recovery machinery
        assert stats.retransmits == stats.nacks_sent == stats.timeouts_fired == 0

    def test_drops_and_corruption_do_not_change_timing(self):
        clean = run_fir(scheme_config("unsecure"))
        damaged = run_fir(faulted("unsecure", drop_rate=0.05, corrupt_rate=0.05,
                                  duplicate_rate=0.0, delay_rate=0.0))
        assert damaged.execution_cycles == clean.execution_cycles

    def test_delay_spikes_do_change_timing(self):
        slow = run_fir(faulted("unsecure", drop_rate=0.0, corrupt_rate=0.0,
                               duplicate_rate=0.0, delay_rate=0.3, delay_cycles=5000))
        clean = run_fir(scheme_config("unsecure"))
        assert slow.fault_stats.delays_injected > 0
        assert slow.execution_cycles > clean.execution_cycles


class TestSecureRecovery:
    @pytest.mark.parametrize("scheme", ["private", "dynamic", "batching"])
    def test_drops_are_recovered_not_lost(self, scheme):
        report = run_fir(faulted(scheme, drop_rate=0.05, corrupt_rate=0.0,
                                 duplicate_rate=0.0, delay_rate=0.0))
        stats = report.fault_stats
        assert stats.drops_injected > 0
        assert stats.lost_messages == 0 and stats.corrupted_deliveries == 0
        assert stats.timeouts_fired > 0
        assert stats.retransmits >= stats.drops_injected
        assert stats.link_failures == 0

    @pytest.mark.parametrize("scheme", ["private", "batching"])
    def test_every_corruption_is_detected_before_delivery(self, scheme):
        report = run_fir(faulted(scheme, drop_rate=0.0, corrupt_rate=0.3,
                                 duplicate_rate=0.0, delay_rate=0.0))
        stats = report.fault_stats
        assert stats.corruptions_injected > 0
        assert stats.corruptions_detected == stats.corruptions_injected
        assert stats.corrupted_deliveries == 0
        assert stats.nacks_sent > 0 and stats.retransmits > 0

    def test_wire_duplicates_are_discarded_by_counter_check(self):
        report = run_fir(faulted("private", drop_rate=0.0, corrupt_rate=0.0,
                                 duplicate_rate=0.5, delay_rate=0.0))
        stats = report.fault_stats
        assert stats.duplicates_injected > 0
        assert stats.duplicates_discarded == stats.duplicates_injected
        assert stats.lost_messages == 0 and stats.link_failures == 0

    def test_delay_spike_causes_spurious_retransmit_not_failure(self):
        report = run_fir(
            faulted("private", drop_rate=0.0, corrupt_rate=0.0, duplicate_rate=0.0,
                    delay_rate=1.0, delay_cycles=2000, ack_timeout=400, max_retries=10)
        )
        stats = report.fault_stats
        assert stats.delays_injected > 0
        assert stats.timeouts_fired > 0
        assert stats.spurious_retransmits > 0
        assert stats.link_failures == 0
        assert stats.lost_messages == 0 and stats.corrupted_deliveries == 0

    def test_retransmissions_burn_fresh_pads(self):
        report = run_fir(faulted("private", drop_rate=0.05, corrupt_rate=0.05,
                                 duplicate_rate=0.0, delay_rate=0.0))
        stats = report.fault_stats
        # every retransmit supersedes a copy whose pad is gone for good,
        # and every MAC rejection burned a receive pad on garbage
        assert stats.wasted_otps >= stats.retransmits


class TestWireTime:
    @pytest.mark.parametrize("scheme", ["unsecure", "private", "batching"])
    @pytest.mark.parametrize("hostile", ["faults", "attacks"])
    def test_every_copy_enters_the_wire_at_its_own_cycle(self, scheme, hostile):
        """Injected extra copies (duplicate, replay, splice, forge) must not
        reserve a link ahead of time: every send starts at the current cycle."""
        if hostile == "faults":
            config = faulted(scheme)  # all four fault classes
        else:
            config = scheme_config(scheme).with_adversary(**ALL_ATTACKS)
        system = MultiGpuSystem(config)
        send = system.topology.send
        future = []

        def checked(packet, now):
            if now != system.sim.now:
                future.append((packet.kind, system.sim.now, now))
            return send(packet, now)

        system.topology.send = checked
        system.run(get_workload("matrixtranspose").generate(n_gpus=4, seed=1, scale=SCALE))
        assert not future


class TestLinkFailure:
    def test_exhausted_retry_budget_raises_structured_error(self):
        config = faulted("private", drop_rate=0.0, corrupt_rate=1.0,
                         duplicate_rate=0.0, delay_rate=0.0,
                         max_retries=1, ack_timeout=200)
        with pytest.raises(LinkFailureError) as exc_info:
            run_fir(config)
        err = exc_info.value
        assert err.attempts == 2  # the original plus max_retries copies
        assert err.src != err.dst
        assert err.gave_up_at >= err.first_sent
        assert err.fault_stats["corruptions_injected"] > 0
        diag = err.diagnostic
        assert diag["src"] == err.src and diag["attempts"] == 2
        assert "undeliverable" in str(err)

    def test_zero_retry_budget_fails_on_first_fault(self):
        config = faulted("private", drop_rate=1.0, corrupt_rate=0.0,
                         duplicate_rate=0.0, delay_rate=0.0,
                         max_retries=0, ack_timeout=100)
        with pytest.raises(LinkFailureError) as exc_info:
            run_fir(config)
        assert exc_info.value.attempts == 1


class TestDeterminismAndSerialization:
    def test_serial_parallel_cached_identical_under_faults(self, tmp_path, four_cpus):
        grid = [
            SweepJob(get_workload(name), faulted(scheme), seed=1, scale=SCALE)
            for name in ("fir", "matrixmultiplication")
            for scheme in ("unsecure", "private", "batching")
        ]
        serial = SweepRunner(jobs=1).run_jobs(grid)
        par_runner = SweepRunner(jobs=4)
        parallel = par_runner.run_jobs(grid)
        assert par_runner.stats.parallel_runs == len(grid)

        cache = ResultCache(tmp_path / "cache")
        SweepRunner(jobs=1, cache=cache).run_jobs(grid)
        warm = SweepRunner(jobs=1, cache=cache)
        cached = warm.run_jobs(grid)
        assert warm.stats.cache_hits == len(grid)

        for s, p, c in zip(serial, parallel, cached):
            assert report_to_dict(s) == report_to_dict(p) == report_to_dict(c)
        assert all(r.fault_stats is not None for r in serial)

    def test_fault_stats_round_trip(self):
        report = run_fir(faulted("private"))
        data = report_to_dict(report)
        assert data["fault_stats"]["drops_injected"] == report.fault_stats.drops_injected
        restored = report_from_dict(data)
        assert restored.fault_stats == report.fault_stats
        assert isinstance(restored.fault_stats, FaultStats)

    def test_fault_stats_merge_and_undetected(self):
        a = FaultStats(drops_injected=2, lost_messages=1)
        b = FaultStats(drops_injected=3, corrupted_deliveries=4)
        a.merge(b)
        assert a.drops_injected == 5
        assert a.undetected == 5


class TestTracing:
    def test_tracer_records_fault_events(self):
        config = faulted("private", drop_rate=0.05, corrupt_rate=0.05)
        trace = get_workload("fir").generate(4, seed=1, scale=SCALE)
        system = MultiGpuSystem(config)
        tracer = MessageTracer().attach(system)
        report = system.run(trace)
        assert tracer.fault_events
        counts = tracer.fault_counts()
        known = {
            "drop", "corrupt", "duplicate", "delay", "mac-reject", "dup-discard",
            "dup-content", "timeout", "retransmit", "give-up",
        }
        assert set(counts) <= known
        assert counts.get("drop", 0) == report.fault_stats.drops_injected
        assert counts.get("retransmit", 0) == report.fault_stats.retransmits
        assert all(e.cycle >= 0 for e in tracer.fault_events)

    def test_tracer_silent_on_clean_channel(self):
        trace = get_workload("fir").generate(4, seed=1, scale=SCALE)
        system = MultiGpuSystem(scheme_config("private"))
        tracer = MessageTracer().attach(system)
        system.run(trace)
        assert tracer.fault_events == []


class TestExperiment:
    def test_smoke_enforces_zero_undetected(self, capsys):
        from repro.experiments.fig_fault_sweep import smoke

        result = smoke(scale=0.05, rates=(0.0, 0.05), use_cache=False)
        out = capsys.readouterr().out
        assert "0 undetected" in out
        assert result.undetected("unsecure", 0.05) > 0
        for scheme in ("private", "dynamic", "batching"):
            assert result.undetected(scheme, 0.05) == 0
        # the fault-free anchor column really ran without injection
        assert result.fault_totals["private"][0.0] == FaultStats()

    def test_format_result_renders(self):
        from repro.experiments.fig_fault_sweep import format_result, run
        from repro.experiments.common import ExperimentRunner

        runner = ExperimentRunner(
            scale=0.05, workloads=[get_workload("fir")], use_cache=False
        )
        result = run(runner, rates=(0.0, 0.05), schemes=("unsecure", "private"))
        text = format_result(result)
        assert "unsecure" in text and "private" in text and "retransmits" in text
