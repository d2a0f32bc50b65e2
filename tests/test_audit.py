"""Functional-replay audit: the timing simulation's protocol trace must be
cryptographically realizable on the real AES-GCM substrate."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.configs import default_config
from repro.secure.audit import AuditEntry, functional_replay
from repro.system import run_workload
from repro.workloads import get_workload


def _audited_run(scheme="private", batching=False, workload="fir", scale=0.05):
    config = default_config(4, scheme=scheme, batching=batching, audit=True)
    trace = get_workload(workload).generate(4, seed=1, scale=scale)
    from repro.system import MultiGpuSystem

    system = MultiGpuSystem(config)
    system.run(trace)
    return system.transport.audit_log


class TestAuditedSimulation:
    def test_conventional_run_replays_cleanly(self):
        log = _audited_run(scheme="private")
        assert log, "audited run must record messages"
        report = functional_replay(log)
        assert report.ok, report.failures
        assert report.messages == len([e for e in log if not e.timeout_close])
        assert report.replay_rejected and report.tamper_rejected

    def test_batched_run_replays_and_verifies_batches(self):
        log = _audited_run(scheme="dynamic", batching=True, workload="kmeans", scale=0.08)
        report = functional_replay(log)
        assert report.ok, report.failures
        assert report.batched_messages > 0
        assert report.batches_verified > 0

    @pytest.mark.parametrize("link", ["faults", "adversary"])
    def test_audit_refused_on_a_hostile_link(self, link):
        # The log records first copies only, so a retransmission's counter
        # would replay as drift.
        config = default_config(4, scheme="private", audit=True)
        if link == "faults":
            config = config.with_fault(drop_rate=0.02, corrupt_rate=0.02, seed=3)
        else:
            config = config.with_adversary(replay_rate=0.02)
        from repro.system import MultiGpuSystem

        with pytest.raises(ValueError, match="audit"):
            MultiGpuSystem(config)

    def test_audit_disabled_by_default(self):
        config = default_config(4, scheme="private")
        trace = get_workload("fir").generate(4, seed=1, scale=0.05)
        from repro.system import MultiGpuSystem

        system = MultiGpuSystem(config)
        system.run(trace)
        assert system.transport.audit_log is None


class TestReplayMechanics:
    def test_counter_drift_detected(self):
        # a log whose counters skip ahead cannot be reproduced faithfully
        log = [
            AuditEntry(1, 2, 0, False, False, 0),
            AuditEntry(1, 2, 5, False, False, 0),  # endpoint would use 1
        ]
        report = functional_replay(log)
        assert any("counter drift" in f for f in report.failures)

    def test_clean_synthetic_log(self):
        log = [AuditEntry(1, 2, c, False, False, 0) for c in range(5)]
        report = functional_replay(log)
        assert report.ok and report.messages == 5

    def test_synthetic_batch_log(self):
        log = [
            AuditEntry(1, 2, 0, True, False, 0),
            AuditEntry(1, 2, 1, True, False, 0),
            AuditEntry(1, 2, 2, True, True, 3),
        ]
        report = functional_replay(log)
        assert report.ok, report.failures
        assert report.batches_verified == 1

    def test_timeout_close_entry(self):
        log = [
            AuditEntry(1, 2, 0, True, False, 0),
            AuditEntry(1, 2, -1, True, True, 1, timeout_close=True),
        ]
        report = functional_replay(log)
        assert report.ok, report.failures
        assert report.batches_verified == 1

    def test_trailing_open_batch_closed_at_end(self):
        log = [AuditEntry(1, 2, 0, True, False, 0)]
        report = functional_replay(log)
        assert report.batches_verified == 1


def test_importing_the_simulator_loads_no_crypto():
    """Only functional_replay needs the AES tables; a process that merely
    simulates (and may record an audit log) must not load them."""
    probe = (
        "import sys, repro.system; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith('repro.crypto') or m == 'repro.secure.protocol'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
