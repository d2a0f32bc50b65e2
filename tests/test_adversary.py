"""Active-adversary harness: injector, invariant monitor, quarantine.

The contract under test (see ``docs/ROBUSTNESS.md``): an in-fabric
adversary mutating, replaying, redirecting, and forging wire traffic never
gets a manipulated block accepted by a secure scheme — every injected
attack resolves to detected or provably-harmless — while the unsecure
baseline silently consumes the same manipulations.  Dormant adversary
configs must be byte-invisible: identical reports, metrics, and cache keys.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import MultiGpuSystem
from repro.configs import AdversaryConfig, FaultConfig, SystemConfig, scheme_config
from repro.interconnect.faults import FaultVerdict
from repro.interconnect.topology import CPU_NODE, Topology
from repro.runner import SweepJob, execute_job
from repro.runner.jobs import job_key
from repro.runner.serialize import report_from_dict, report_to_dict
from repro.secure.adversary import (
    AttackKind,
    AttackReport,
    LinkPerturbation,
)
from repro.secure.invariants import CounterLedger, InvariantMonitor, InvariantViolationError
from repro.secure.replay import ReplayGuard
from repro.workloads import get_workload

SCALE = 0.1

#: A mix exercising every attack class at once.
ALL_RATES = dict(
    flip_cipher_rate=0.02,
    flip_mac_rate=0.01,
    replay_rate=0.02,
    reorder_rate=0.02,
    truncate_rate=0.01,
    splice_rate=0.01,
    forge_rate=0.01,
    seed=3,
)


def _run(scheme: str, **adversary):
    config = scheme_config(scheme)
    if adversary:
        config = config.with_adversary(**adversary)
    trace = get_workload("fir").generate(n_gpus=4, seed=1, scale=SCALE)
    return MultiGpuSystem(config).run(trace)


class TestAdversaryConfig:
    def test_defaults_are_dormant(self):
        cfg = AdversaryConfig()
        assert not cfg.enabled
        assert cfg.total_rate == 0.0

    def test_any_rate_enables(self):
        assert AdversaryConfig(forge_rate=0.01).enabled

    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            AdversaryConfig(replay_rate=-0.1)
        with pytest.raises(ValueError):
            AdversaryConfig(flip_cipher_rate=1.5)

    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError):
            AdversaryConfig(flip_cipher_rate=0.6, replay_rate=0.6)

    def test_with_adversary_builder(self):
        config = scheme_config("private").with_adversary(splice_rate=0.05, seed=9)
        assert config.adversary.splice_rate == 0.05
        assert config.adversary.seed == 9
        assert config.security == scheme_config("private").security


class TestAttackStream:
    """The attack half of :class:`LinkPerturbation` verdicts."""

    def _perturb(self, topology=None, fault=None, **overrides) -> LinkPerturbation:
        cfg = SystemConfig(
            fault=fault or FaultConfig(), adversary=AdversaryConfig(**{**ALL_RATES, **overrides})
        )
        return LinkPerturbation(cfg, topology or Topology(4))

    @staticmethod
    def _attacks(perturb, src, dst, n):
        return [perturb.decide(src, dst)[1] for _ in range(n)]

    def test_decisions_are_seed_deterministic(self):
        a, b = self._perturb(), self._perturb()
        rolls_a = self._attacks(a, 1, 2, 500)
        rolls_b = self._attacks(b, 1, 2, 500)
        assert rolls_a == rolls_b
        assert any(r is not None for r in rolls_a)

    def test_pairs_roll_independently(self):
        rolls_12 = self._attacks(self._perturb(), 1, 2, 200)
        rolls_21 = self._attacks(self._perturb(), 2, 1, 200)
        assert rolls_12 != rolls_21  # directed pairs have distinct streams

    def test_seed_changes_the_stream(self):
        base = self._attacks(self._perturb(), 1, 2, 200)
        other = self._attacks(self._perturb(seed=99), 1, 2, 200)
        assert base != other

    def test_all_attack_kinds_reachable(self):
        seen = set(self._attacks(self._perturb(), 1, 2, 5000)) - {None}
        assert seen == set(AttackKind)

    def test_quarantined_pair_stops_rolling(self):
        topo = Topology(4)
        perturb = self._perturb(topo)
        assert topo.quarantine(1, 2)
        assert all(a is None for a in self._attacks(perturb, 1, 2, 300))
        # the reverse direction is unaffected
        assert any(a is not None for a in self._attacks(perturb, 2, 1, 300))

    def test_splice_target_avoids_the_pair(self):
        target = self._perturb().splice_target(1, 2)
        assert target not in (1, 2)

    def test_destroyed_copy_advances_the_stream_but_is_not_attacked(self):
        # A DROP or CORRUPT copy still consumes its attack roll, so the
        # attack stream stays aligned with an undamaged twin's.
        damaged = self._perturb(fault=FaultConfig(drop_rate=0.3, corrupt_rate=0.3, seed=4))
        twin = self._perturb()
        spared = 0
        for _ in range(500):
            verdict, attack = damaged.decide(1, 2)
            expected = twin.decide(1, 2)[1]
            if verdict in (FaultVerdict.DROP, FaultVerdict.CORRUPT):
                assert attack is None
                spared += expected is not None
            else:
                assert attack == expected
        assert spared > 0


class TestAttackReport:
    def _populated(self) -> AttackReport:
        r = AttackReport()
        r.note_injected(AttackKind.REPLAY)
        r.note_injected(AttackKind.FORGE)
        r.note_detected(AttackKind.REPLAY)
        r.note_accepted(AttackKind.FORGE)
        r.note_quarantined(1, 2)
        return r

    def test_round_trip(self):
        r = self._populated()
        clone = AttackReport.from_dict(r.as_dict())
        assert clone.as_dict() == r.as_dict()

    def test_totals(self):
        r = self._populated()
        assert r.total_injected == 2
        assert r.total_detected == 1
        assert r.accepted_undetected == 1
        assert r.unresolved == 0

    def test_merge_accumulates(self):
        a, b = self._populated(), self._populated()
        a.merge(b)
        assert a.total_injected == 4
        assert a.accepted_undetected == 2
        assert a.quarantined == [[1, 2], [1, 2]]

    def test_report_serialization_round_trip(self):
        report = _run("private", **ALL_RATES)
        data = report_to_dict(report)
        assert "attack_report" in data
        clone = report_from_dict(data)
        assert clone.attack_report.as_dict() == report.attack_report.as_dict()

    def test_clean_report_has_no_attack_section(self):
        report = _run("private")
        assert report.attack_report is None
        assert "attack_report" not in report_to_dict(report)


class TestZeroUndetectedContract:
    @pytest.mark.parametrize("scheme", ["private", "dynamic", "batching"])
    def test_secure_scheme_detects_everything(self, scheme):
        report = _run(scheme, **ALL_RATES)
        ledger = report.attack_report
        assert ledger.total_injected > 0
        assert ledger.accepted_undetected == 0
        assert ledger.unresolved == 0
        assert report.metrics["adv.accepted_undetected"]["value"] == 0
        assert report.metrics["adv.invariant_violations"]["value"] == 0

    def test_unsecure_baseline_accepts_attacks(self):
        report = _run("unsecure", **ALL_RATES)
        ledger = report.attack_report
        assert ledger.total_injected > 0
        assert ledger.accepted_undetected > 0
        assert ledger.unresolved == 0

    def test_attack_runs_are_deterministic(self):
        a = report_to_dict(_run("private", **ALL_RATES))
        b = report_to_dict(_run("private", **ALL_RATES))
        assert a == b

    @pytest.mark.parametrize("scheme", ["unsecure", "private", "batching"])
    @pytest.mark.parametrize("kind", list(AttackKind), ids=lambda kind: kind.value)
    def test_each_attack_alone_lands_in_its_bucket(self, kind, scheme):
        """One kind at a time pins where each resolves on both transports:
        a secure scheme detects it and the unsecure fabric accepts it,
        except a reorder, which is late but intact (harmless) on both."""
        config = scheme_config(scheme).with_adversary(seed=3, **{f"{kind.value}_rate": 0.05})
        trace = get_workload("fir").generate(n_gpus=4, seed=1, scale=0.05)
        ledger = MultiGpuSystem(config).run(trace).attack_report
        injected = ledger.injected.get(kind.value, 0)
        assert injected > 0 and ledger.total_injected == injected
        if kind is AttackKind.REORDER:
            bucket = ledger.harmless
        elif scheme == "unsecure":
            bucket = ledger.accepted
        else:
            bucket = ledger.detected
        assert bucket == {kind.value: injected}
        assert ledger.unresolved == 0


class TestDormantByteIdentity:
    def test_rate_zero_adversary_is_invisible(self):
        pristine = report_to_dict(_run("private"))
        dormant = report_to_dict(_run("private", flip_cipher_rate=0.0))
        assert dormant == pristine

    def test_rate_zero_adversary_shares_the_cache_key(self):
        spec = get_workload("fir")
        plain = SweepJob(spec=spec, config=scheme_config("private"), seed=1, scale=SCALE)
        dormant = SweepJob(
            spec=spec,
            config=scheme_config("private").with_adversary(replay_rate=0.0),
            seed=1,
            scale=SCALE,
        )
        active = SweepJob(
            spec=spec,
            config=scheme_config("private").with_adversary(replay_rate=0.01),
            seed=1,
            scale=SCALE,
        )
        assert job_key(plain) == job_key(dormant)
        assert job_key(plain) != job_key(active)

    def test_adversary_metrics_absent_when_dormant(self):
        report = execute_job(
            SweepJob(
                spec=get_workload("fir"),
                config=scheme_config("private").with_adversary(forge_rate=0.0),
                seed=1,
                scale=SCALE,
            )
        )
        assert not any(n.startswith("adv.") for n in report.metrics)


class TestQuarantine:
    def test_detections_trigger_quarantine_and_run_completes(self):
        report = _run(
            "private",
            flip_cipher_rate=0.05,
            flip_mac_rate=0.02,
            truncate_rate=0.02,
            seed=5,
            quarantine_threshold=3,
        )
        ledger = report.attack_report
        assert ledger.quarantined, "expected at least one quarantined link"
        assert ledger.accepted_undetected == 0
        assert ledger.unresolved == 0
        assert report.metrics["adv.quarantined_links"]["value"] == len(
            ledger.quarantined
        )

    def test_threshold_zero_never_quarantines(self):
        report = _run("private", flip_cipher_rate=0.05, seed=5)
        assert report.attack_report.quarantined == []

    def test_p2p_reroute_changes_the_path(self):
        topo = Topology(4)
        before = topo.path(1, 2)
        assert topo.quarantine(1, 2)
        after = topo.path(1, 2)
        assert after != before
        assert topo.is_quarantined(1, 2)
        assert not topo.is_quarantined(2, 1)  # directed
        assert topo.quarantine(1, 2)  # idempotent

    def test_ring_reroute_uses_the_other_direction(self):
        topo = Topology(4, fabric="ring")
        before = topo.path(1, 2)
        assert topo.quarantine(1, 2)
        after = topo.path(1, 2)
        assert after != before
        assert len(after) == topo.n_gpus - 1  # long way round

    def test_switch_reroute_avoids_direct_transit(self):
        topo = Topology(4, fabric="switch")
        before = topo.path(1, 2)
        assert topo.quarantine(1, 2)
        assert topo.path(1, 2) != before

    def test_cpu_links_cannot_be_rerouted(self):
        topo = Topology(4)
        assert not topo.quarantine(CPU_NODE, 1)
        assert not topo.quarantine(1, CPU_NODE)

    def test_two_gpu_p2p_falls_back_to_host_detour(self):
        topo = Topology(2)
        assert topo.quarantine(1, 2)
        names = [ch.name for ch in topo.path(1, 2)]
        assert any("pcie" in name for name in names)


class TestInvariantMonitor:
    def test_clean_transcript_passes(self):
        m = InvariantMonitor()
        m.on_counter(1, 2, 0)
        m.on_send_pad(1, 2, 0)
        m.on_recv_pad(1, 2, 0)
        m.on_delivered(1, 2, 0, pid=7)
        m.check()

    def test_counter_regression_flagged(self):
        m = InvariantMonitor()
        m.on_counter(1, 2, 5)
        m.on_counter(1, 2, 5)
        with pytest.raises(InvariantViolationError, match="monotonic"):
            m.check()

    def test_pad_double_consumption_flagged(self):
        m = InvariantMonitor()
        m.on_send_pad(1, 2, 3)
        m.on_send_pad(1, 2, 3)
        with pytest.raises(InvariantViolationError, match="send pad"):
            m.check()

    def test_tampered_delivery_flagged(self):
        m = InvariantMonitor()
        m.on_tampered_copy(1, 2, 4, pid=11)
        m.on_delivered(1, 2, 4, pid=11)
        with pytest.raises(InvariantViolationError, match="tampered"):
            m.check()

    def test_delivery_after_mac_reject_flagged(self):
        m = InvariantMonitor()
        m.on_mac_reject(1, 2, 4, pid=11)
        m.on_delivered(1, 2, 4, pid=11)
        with pytest.raises(InvariantViolationError, match="rejection"):
            m.check()

    def test_copy_identity_is_per_pid(self):
        # the same counter on a different wire copy is a different block
        m = InvariantMonitor()
        m.on_tampered_copy(1, 2, 4, pid=11)
        m.on_delivered(1, 2, 4, pid=12)
        m.check()

    def test_unresolved_attacks_flagged(self):
        m = InvariantMonitor()
        report = AttackReport()
        report.note_injected(AttackKind.SPLICE)
        m.check_attack_report(report)
        with pytest.raises(InvariantViolationError, match="never resolved"):
            m.check()

    def test_receive_pad_double_consumption_flagged(self):
        m = InvariantMonitor()
        m.on_recv_pad(1, 2, 3)
        m.on_recv_pad(1, 2, 3)
        with pytest.raises(InvariantViolationError, match="receive pad consumed twice"):
            m.check()

    def test_same_counter_on_two_pairs_is_not_a_double_use(self):
        m = InvariantMonitor()
        for src, dst in ((1, 2), (2, 1), (1, 3)):
            m.on_send_pad(src, dst, 0)
            m.on_recv_pad(src, dst, 0)
        m.check()

    def test_out_of_order_and_far_counters_are_exact(self):
        m = InvariantMonitor()
        # out of order, across the first ledger's end (64) and far past it
        for ctr in (5, 0, 3, 64, 63, 100_000, 1, 99_999, 100_001):
            m.on_send_pad(1, 2, ctr)
        m.check()
        m.on_send_pad(1, 2, 100_000)
        m.on_send_pad(1, 2, 63)
        m.on_send_pad(1, 2, 2)
        assert m.violations == [
            "send pad consumed twice for 1->2 ctr=100000",
            "send pad consumed twice for 1->2 ctr=63",
        ]

    @pytest.mark.parametrize("hook", ["on_send_pad", "on_recv_pad"])
    def test_negative_counter_at_a_pad_hook_flagged(self, hook):
        m = InvariantMonitor()
        # mark the last slot, where a wrapped index -1 would land
        getattr(m, hook)(1, 2, 63)
        getattr(m, hook)(1, 2, -1)
        with pytest.raises(InvariantViolationError, match="negative counter"):
            m.check()

    def test_replay_check_reads_a_forged_negative_counter_as_unseen(self):
        seen = CounterLedger()
        for ctr in range(64):  # every slot marked: a wrapped index would hit one
            seen.mark(ctr)
        assert 63 in seen and 64 not in seen
        assert all(ctr not in seen for ctr in (-1, -2, -64, -65, -100_000))

    @given(
        st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=3000)), max_size=200)
    )
    def test_ledger_answers_like_a_set(self, ops):
        ledger, reference = CounterLedger(), set()
        for is_mark, ctr in ops:
            if is_mark:
                assert ledger.mark(ctr) == (ctr in reference)
                reference.add(ctr)
            else:
                assert (ctr in ledger) == (ctr in reference)

    def test_guard_ledger_reconciles_on_every_removal_path(self):
        guard = ReplayGuard(1, window=2)
        for ctr in range(4):
            guard.on_send(2, ctr)
        guard.on_send(2, 4, batch_id=7)
        guard.on_send(2, 5, batch_id=7)
        for ctr in range(6, 10):
            guard.on_send(2, ctr)
        assert guard.on_ack(2, 0)  # head of the queue
        assert guard.on_ack(2, 2)  # in-window reordering
        assert guard.on_ack(2, 7, batch_id=None) is False  # out of window: 1, 3, 6 dropped
        assert guard.retire_lost(2, 8)
        assert guard.on_ack(2, batch_id=7)
        assert (guard.sent, guard.acked, guard.dropped, guard.outstanding()) == (10, 5, 4, 1)
        m = InvariantMonitor()
        m.check_guard(guard, window=2)
        m.check()

    def test_guard_losing_an_entry_uncounted_is_flagged(self):
        guard = ReplayGuard(1)
        for ctr in range(3):
            guard.on_send(2, ctr)
        guard.on_ack(2, 0)
        guard._fifo[2].pop()  # gone, yet neither ACKed nor dropped
        m = InvariantMonitor()
        m.check_guard(guard, window=0)
        with pytest.raises(InvariantViolationError, match="ledger inconsistent"):
            m.check()


def _deep_size(obj, seen: set[int]) -> int:
    """``sys.getsizeof`` of ``obj`` and of everything it holds, each once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(_deep_size(k, seen) + _deep_size(v, seen) for k, v in obj.items())
    elif isinstance(obj, (set, frozenset, tuple, list)):
        size += sum(_deep_size(item, seen) for item in obj)
    elif hasattr(obj, "__slots__"):
        size += sum(_deep_size(getattr(obj, name), seen) for name in obj.__slots__)
    return size


class TestLedgerMemory:
    def test_ledgers_keep_a_few_bytes_per_counter(self):
        # relu/private as the benchmark's under-attack grid builds it
        from repro.experiments.fig_adversary import adversary_overrides

        adversary = adversary_overrides("all", 0.04, seed=1, quarantine_threshold=6)
        config = (
            scheme_config("private", n_gpus=4)
            .with_fault(drop_rate=0.01, corrupt_rate=0.01, seed=1, max_retries=16)
            .with_adversary(**adversary)
        )
        trace = get_workload("relu").generate(n_gpus=4, seed=1, scale=0.1)
        system = MultiGpuSystem(config)
        system.run(trace)
        transport = system.transport
        monitor = transport.monitor
        seen: set[int] = set()
        size = sum(
            _deep_size(ledgers, seen)
            for ledgers in (monitor._send_pads, monitor._recv_pads, transport._recv_seen)
        )
        # every counter a sender issued, as the guard ledgers settle it
        issued = sum(guard.sent for guard in transport.guards.values())
        assert issued > 1000
        assert size <= 16 * issued


class TestExperimentHarness:
    def test_smoke_assertions_importable(self):
        from repro.experiments.fig_adversary import (
            MIXES,
            adversary_config,
            adversary_overrides,
        )

        for mix in MIXES:
            overrides = adversary_overrides(mix, rate=0.04)
            rates = [v for k, v in overrides.items() if k.endswith("_rate")]
            assert abs(sum(rates) - 0.04) < 1e-12
            config = adversary_config("private", mix)
            assert config.adversary.enabled

    def test_rate_zero_config_is_pristine(self):
        from repro.experiments.fig_adversary import adversary_config

        assert adversary_config("private", "all", rate=0.0) == scheme_config("private")
