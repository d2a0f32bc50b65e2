"""End-to-end system tests: full machine, real workload traces."""

import gc
from collections import Counter

import pytest

from repro.configs import default_config, scheme_config
from repro.experiments.fig_adversary import adversary_overrides
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.tlb import TlbHierarchy
from repro.interconnect.topology import Topology
from repro.memory.address_space import Placement
from repro.memory.directory import BlockDirectory
from repro.secure.hostile import HostileSecureTransport
from repro.system import MultiGpuSystem, run_workload
from repro.workloads import get_workload
from repro.workloads.builder import TraceBuilder

SCALE = 0.15  # small traces keep these tests fast


def simulate(scheme, workload="matrixmultiplication", n_gpus=4, seed=1, **overrides):
    trace = get_workload(workload).generate(n_gpus=n_gpus, seed=seed, scale=SCALE)
    if overrides:
        config = default_config(n_gpus, scheme="dynamic" if scheme == "batching" else scheme,
                                batching=(scheme == "batching"), **overrides)
    else:
        config = scheme_config(scheme, n_gpus=n_gpus)
    return run_workload(config, trace)


class TestCompletion:
    @pytest.mark.parametrize("scheme", ["unsecure", "private", "shared", "cached", "dynamic", "batching"])
    def test_all_schemes_complete(self, scheme):
        report = simulate(scheme)
        assert report.execution_cycles > 0
        assert report.per_gpu_finish and all(v > 0 for v in report.per_gpu_finish.values())

    @pytest.mark.parametrize("n_gpus", [1, 2, 4, 8])
    def test_various_gpu_counts(self, n_gpus):
        report = simulate("batching", n_gpus=n_gpus)
        assert report.n_gpus == n_gpus
        assert report.execution_cycles > 0

    def test_system_runs_exactly_once(self):
        trace = get_workload("fir").generate(4, seed=1, scale=SCALE)
        system = MultiGpuSystem(scheme_config("unsecure"))
        system.run(trace)
        with pytest.raises(RuntimeError):
            system.run(trace)


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = simulate("batching", seed=3)
        b = simulate("batching", seed=3)
        assert a.execution_cycles == b.execution_cycles
        assert a.traffic_bytes == b.traffic_bytes
        assert a.remote_requests == b.remote_requests

    def test_different_seed_changes_random_workloads(self):
        a = simulate("unsecure", workload="pagerank", seed=1)
        b = simulate("unsecure", workload="pagerank", seed=2)
        assert a.execution_cycles != b.execution_cycles


class TestInvariants:
    def test_secure_never_reduces_traffic(self):
        base = simulate("unsecure")
        for scheme in ("private", "cached", "dynamic", "batching"):
            secured = simulate(scheme)
            assert secured.traffic_bytes > base.traffic_bytes

    def test_batching_reduces_metadata_vs_conventional(self):
        conventional = simulate("dynamic")
        batched = simulate("batching")
        assert batched.meta_traffic_bytes < conventional.meta_traffic_bytes

    def test_byte_accounting_consistent(self):
        for scheme in ("unsecure", "private", "batching"):
            r = simulate(scheme)
            assert r.base_traffic_bytes + r.meta_traffic_bytes == r.traffic_bytes

    def test_unsecure_has_no_metadata(self):
        r = simulate("unsecure")
        assert r.meta_traffic_bytes == 0
        assert r.otp_send.hit == 0.0 and r.otp_send.miss == 0.0

    def test_secure_commu_mode_has_crypto_but_no_meta_bytes(self):
        r = simulate("private", count_metadata=False)
        assert r.meta_traffic_bytes == 0
        assert r.otp_send.hit + r.otp_send.partial + r.otp_send.miss == pytest.approx(1.0)

    def test_otp_distribution_sums_to_one(self):
        r = simulate("private")
        for dist in (r.otp_send, r.otp_recv):
            assert dist.hit + dist.partial + dist.miss == pytest.approx(1.0)
        assert r.otp_send.hidden == pytest.approx(r.otp_send.hit + r.otp_send.partial)

    def test_more_otp_entries_do_not_hurt(self):
        small = simulate("private", otp_multiplier=1)
        big = simulate("private", otp_multiplier=16)
        assert big.execution_cycles <= small.execution_cycles

    def test_replay_guard_fully_drains(self):
        trace = get_workload("kmeans").generate(4, seed=1, scale=SCALE)
        system = MultiGpuSystem(scheme_config("batching"))
        system.run(trace)
        for node, guard in system.transport.guards.items():
            assert guard.outstanding() == 0, f"node {node} has unacked messages"
            assert guard.violations == 0

    def test_migrations_move_pages(self):
        trace = get_workload("matrixmultiplication").generate(4, seed=1, scale=SCALE)
        system = MultiGpuSystem(scheme_config("unsecure"))
        report = system.run(trace)
        if report.migrations:
            assert system.page_table.migrations == report.migrations

    def test_rpki_reported(self):
        r = simulate("unsecure", workload="relu")
        assert r.rpki > 0


class TestSlowdownApi:
    def test_slowdown_and_traffic_ratio(self):
        base = simulate("unsecure")
        secured = simulate("private")
        assert secured.slowdown_vs(base) >= 1.0 or abs(secured.slowdown_vs(base) - 1) < 0.2
        assert secured.traffic_ratio_vs(base) > 1.0

    def test_slowdown_rejects_empty_baseline(self):
        base = simulate("unsecure")
        broken = simulate("private")
        broken.execution_cycles = 0
        with pytest.raises(ValueError):
            base.slowdown_vs(broken)


class TestIdleGpu:
    @pytest.mark.parametrize("scheme", ["unsecure", "private", "batching"])
    def test_gpu_that_issues_nothing_still_serves(self, scheme):
        # GPU 2 owns the array but issues no access, so build() leaves it
        # out of the trace and it has no lanes; it must still serve GPU 1.
        builder = TraceBuilder("idle", n_gpus=4, seed=1)
        array = builder.alloc("a", 128, placement=Placement.OWNER, owner=2)
        builder.burst(1, 0, array, 0, 32)
        report = MultiGpuSystem(scheme_config(scheme, n_gpus=4)).run(builder.build())
        assert list(report.per_gpu_finish) == [1]
        assert report.remote_requests == 32


@pytest.fixture(scope="module")
def fir_trace():
    return get_workload("fir").generate(n_gpus=4, seed=1, scale=0.05)


def hostile_config(scheme):
    return (
        scheme_config(scheme, n_gpus=4)
        .with_fault(drop_rate=0.01, corrupt_rate=0.01, seed=1)
        .with_adversary(**adversary_overrides("all", 0.04, seed=1))
    )


LIFETIME_CELLS = {
    **{s: scheme_config(s, n_gpus=4) for s in ("unsecure", "private", "dynamic", "batching")},
    "batching-hostile": hostile_config("batching"),
}

#: the in-flight drain test's cells: a clean link, and a hostile one on
#: each ACK channel (per-message and per-batch)
DRAIN_CELLS = {
    "private": scheme_config("private", n_gpus=4),
    "private-hostile": hostile_config("private"),
    "batching-hostile": hostile_config("batching"),
}


class TestMachineLifetime:
    """The engine runs no collection after a cell, so a finished machine
    must be acyclic: refcounting then frees it as soon as it is dropped,
    and two machines never coexist in a sweep."""

    @pytest.mark.parametrize("cell", list(LIFETIME_CELLS))
    def test_finished_cell_leaves_no_cyclic_garbage(self, fir_trace, cell):
        gc.collect()
        MultiGpuSystem(LIFETIME_CELLS[cell]).run(fir_trace)
        assert gc.collect() == 0

    def test_finished_run_leaves_no_request_in_flight(self, monkeypatch, calls):
        # Settling a block must cancel its retransmission timer, so every
        # timer that fires finds its block still in the recovery table.
        fired = Counter()
        ack_timeout = HostileSecureTransport._ack_timeout

        def checked(transport, record):
            packet = record.packet
            key = (packet.src, packet.dst, record.counters[-1])
            fired["live" if transport._pending.get(key) is record else "settled"] += 1
            ack_timeout(transport, record)

        monkeypatch.setattr(HostileSecureTransport, "_ack_timeout", checked)
        directory_requests = calls(BlockDirectory, "request")
        # fft at this size makes remote reads, remote writes and migrations
        trace = get_workload("fft").generate(n_gpus=4, seed=1, scale=0.1)
        for cell, config in DRAIN_CELLS.items():
            fired.clear()
            directory_requests.clear()
            system = MultiGpuSystem(config)
            report = system.run(trace)
            reads = sum(1 for _, _, must_issue in directory_requests if must_issue)
            writes = sum(g.remote_requests for g in system.gpus.values()) - reads
            assert reads > 0 and writes > 0 and report.migrations > 0, cell
            for node, gpu in system.gpus.items():
                assert gpu.directory.pending_count() == 0, f"{cell}: gpu{node} has reads in flight"
                assert gpu._pending == {}, f"{cell}: gpu{node} has writes in flight"
                assert gpu._migrating == {}, f"{cell}: gpu{node} has migrations in flight"
                assert gpu.outstanding == 0
            if cell.endswith("-hostile"):
                assert fired["live"] > 0 and fired["settled"] == 0, (cell, fired)
                assert system.transport._pending == {}, f"{cell}: blocks left unsettled"


class TestTracedEntryPoints:
    """The benchmark tracer counts cache hits, TLB walks and messages by
    wrapping these class attributes; a hot-path change that inlined one
    of them would silently stop its counts."""

    @pytest.mark.parametrize("scheme", ["unsecure", "private", "batching"])
    def test_every_call_goes_through_the_class(self, calls, fir_trace, scheme):
        lookups = calls(SetAssociativeCache, "lookup")
        translations = calls(TlbHierarchy, "translate")
        sends = calls(Topology, "send")
        system = MultiGpuSystem(scheme_config(scheme, n_gpus=4))
        report = system.run(fir_trace)

        lanes = [lane for gpu in fir_trace.gpu_traces.values() for lane in gpu.lanes]
        reads = sum(1 for lane in lanes for write in lane.writes if not write)
        l1s = {id(l1) for gpu in system.gpus.values() for l1 in gpu.l1s}
        l1_hits = [hit for cache, _, hit in lookups if id(cache) in l1s]
        # every read looks up its L1, and every L1 miss looks up the L2
        assert len(l1_hits) == reads > 0
        assert len(lookups) - len(l1_hits) == l1_hits.count(False)
        assert len(translations) == sum(len(lane) for lane in lanes) > 0
        assert len(sends) == report.metrics["msg.sent"]["value"] > 0
