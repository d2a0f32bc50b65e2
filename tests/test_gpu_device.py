"""GPU device model tests against a fixed-delay fake transport."""

import pytest

from repro.configs import GpuConfig, MigrationConfig, SystemConfig
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.compute_unit import ComputeUnitLane
from repro.gpu.cpu import DRAM_BYTES_PER_CYCLE, MemoryNode
from repro.gpu.gpu import GpuDevice
from repro.gpu.hbm import HbmModel
from repro.interconnect.packet import Packet, PacketKind
from repro.interconnect.topology import CPU_NODE
from repro.memory.address_space import BLOCK_BYTES, BLOCKS_PER_PAGE, PAGE_BYTES
from repro.memory.directory import BlockDirectory
from repro.memory.migration import AccessCounterMigrationPolicy
from repro.memory.page_table import PageTable
from repro.workloads.compiled import CompiledGpuTrace, CompiledLane
from repro.workloads.rpki import rpki_of


def make_gpu(sim, transport, owners, node=1, threshold=100, **gpu_overrides):
    pt = PageTable(owners)
    policy = AccessCounterMigrationPolicy(pt, threshold=threshold)
    cfg = GpuConfig(**gpu_overrides) if gpu_overrides else GpuConfig()
    gpu = GpuDevice(
        node_id=node,
        sim=sim,
        cfg=cfg,
        transport=transport,
        page_table=pt,
        migration_policy=policy,
        migration_cfg=MigrationConfig(driver_cycles=50, shootdown_cycles=20),
    )
    return gpu, pt


def host_cpu(sim, transport):
    """The host as the system builds it: a memory node over its DRAM."""
    dram = HbmModel("cpu.dram", SystemConfig().cpu_dram_latency, DRAM_BYTES_PER_CYCLE)
    return MemoryNode(CPU_NODE, sim, transport, dram)


def reads(addresses, gap=1):
    """A read-only lane: ``gap`` compute cycles before every access."""
    n = len(addresses)
    return CompiledLane((gap,) * n, tuple(addresses), (0,) * n)


def cache_hits(lookups):
    """Reads served by L1 or, on an L1 miss, by L2, from the log of
    ``SetAssociativeCache.lookup`` calls."""
    return sum(1 for _, _, hit in lookups if hit)


def accesses_of(memory, log):
    """The ``(now, size_bytes)`` of each ``HbmModel.access`` on ``memory``."""
    return [args for model, args, _ in log if model is memory]


class TestComputeUnitLane:
    def test_state_progression(self):
        # waiting, ready, blocked at its cap, ready again, then done: a lane
        # that is not ready refuses to issue and keeps its state
        lane = ComputeUnitLane(0, reads([0, 64], gap=5), max_outstanding=1)
        with pytest.raises(RuntimeError):
            lane.issue(4, consumes_slot=False)  # its gap runs until 5
        lane.issue(5, consumes_slot=True)
        assert (lane.index, lane.outstanding, lane.ready_at) == (1, 1, 10)
        with pytest.raises(RuntimeError):
            lane.issue(10, consumes_slot=False)  # at its outstanding cap
        lane.complete()
        lane.issue(10, consumes_slot=False)
        assert (lane.index, lane.outstanding) == (2, 0)
        with pytest.raises(RuntimeError):
            lane.issue(100, consumes_slot=False)  # trace exhausted

    def test_gap_measured_from_issue(self):
        lane = ComputeUnitLane(0, reads([0, 64], gap=3))
        lane.issue(7, consumes_slot=False)
        assert lane.ready_at == 10

    def test_issue_when_not_ready_raises(self):
        lane = ComputeUnitLane(0, reads([0], gap=10))
        with pytest.raises(RuntimeError):
            lane.issue(0, consumes_slot=False)

    def test_complete_without_outstanding_raises(self):
        lane = ComputeUnitLane(0, reads([]))
        with pytest.raises(RuntimeError):
            lane.complete()

    def test_empty_trace_is_drained(self, sim, fake_transport):
        lane = ComputeUnitLane(0, reads([]))
        with pytest.raises(RuntimeError):
            lane.issue(0, consumes_slot=False)
        # a GPU whose only lane has nothing to replay finishes at once
        gpu, _ = make_gpu(sim, fake_transport, {1: 1})
        gpu.load_trace(CompiledGpuTrace((reads([]),), instructions=0))
        gpu.start()
        sim.run()
        assert gpu.finish_cycle == 0


class TestGpuLocalExecution:
    def test_pure_local_reads_finish(self, sim, fake_transport, calls):
        # GPU 1 owns page 1; all accesses local.
        hbm = calls(HbmModel, "access")
        gpu, _ = make_gpu(sim, fake_transport, {1: 1})
        addrs = [PAGE_BYTES + i * BLOCK_BYTES for i in range(8)]
        gpu.load_trace(CompiledGpuTrace((reads(addrs),), instructions=1000))
        gpu.start()
        sim.run()
        assert gpu.finish_cycle is not None
        assert gpu.remote_requests == 0
        assert len(accesses_of(gpu.memory, hbm)) == 8  # every local miss reads HBM
        assert fake_transport.sent == []

    def test_cache_hits_filter_memory_traffic(self, sim, fake_transport, calls):
        lookups = calls(SetAssociativeCache, "lookup")
        hbm = calls(HbmModel, "access")
        gpu, _ = make_gpu(sim, fake_transport, {1: 1})
        addr = PAGE_BYTES
        # serial accesses (gap larger than walk+HBM) so the first fill lands
        # before the next lookup; the remaining nine then hit in L1
        gpu.load_trace(CompiledGpuTrace((reads([addr] * 10, gap=500),), instructions=100))
        gpu.start()
        sim.run()
        assert cache_hits(lookups) == 9
        assert len(accesses_of(gpu.memory, hbm)) == 1

    def test_pump_grants_ready_lanes_round_robin(self, sim, fake_transport, monkeypatch):
        gpu, _ = make_gpu(sim, fake_transport, {1: 1})
        # three lanes of two local writes each, all ready at cycle 0 and
        # ready again right after issuing; lane 1 starts 5 cycles late
        lanes = tuple(
            CompiledLane((5 if i == 1 else 0, 0), (PAGE_BYTES, PAGE_BYTES + 64), (1, 1))
            for i in range(3)
        )
        gpu.load_trace(CompiledGpuTrace(lanes, instructions=100))
        order = []
        handle = GpuDevice._handle_access

        def record(self, lane, now):
            order.append((now, lane.lane_id))
            handle(self, lane, now)

        monkeypatch.setattr(GpuDevice, "_handle_access", record)
        gpu.start()
        sim.run()
        # the pointer moves past each winner and skips lanes not ready
        assert order == [(0, 0), (0, 2), (0, 0), (0, 2), (5, 1), (5, 1)]

    def test_rpki_computation(self, sim, fake_transport):
        gpu, _ = make_gpu(sim, fake_transport, {1: 1})
        gpu.load_trace(CompiledGpuTrace((reads([PAGE_BYTES]),), instructions=2000))
        gpu.start()
        sim.run()
        assert rpki_of(gpu.remote_requests, gpu.instructions) == 0.0


class TestGpuRemoteExecution:
    def _run_remote(self, sim, fake_transport, n_blocks=4, **overrides):
        # GPU 1's accesses land on a page owned by the CPU (node 0).
        gpu, pt = make_gpu(sim, fake_transport, {0: 0}, **overrides)
        host_cpu(sim, fake_transport)
        addrs = [i * BLOCK_BYTES for i in range(n_blocks)]
        gpu.load_trace(CompiledGpuTrace((reads(addrs),), instructions=1000))
        gpu.start()
        sim.run()
        return gpu

    def test_remote_reads_round_trip(self, sim, fake_transport):
        gpu = self._run_remote(sim, fake_transport, n_blocks=4)
        assert gpu.finish_cycle is not None
        kinds = [p.kind for p in fake_transport.sent]
        assert kinds.count(PacketKind.READ_REQ) == 4
        assert kinds.count(PacketKind.DATA_RESP) == 4
        assert gpu.remote_requests == 4
        assert rpki_of(gpu.remote_requests, gpu.instructions) == pytest.approx(4.0)

    def test_duplicate_block_requests_merge(self, sim, fake_transport, calls):
        requests = calls(BlockDirectory, "request")
        gpu, _ = make_gpu(sim, fake_transport, {0: 0}, lane_outstanding=8)
        host_cpu(sim, fake_transport)
        # two lanes read the same block at the same time: one fetch expected
        lanes = [reads([0], gap=0), reads([0], gap=0)]
        gpu.load_trace(CompiledGpuTrace(tuple(lanes), instructions=100))
        gpu.start()
        sim.run()
        reqs = [p for p in fake_transport.sent if p.kind is PacketKind.READ_REQ]
        assert len(reqs) == 1
        # the first request issues the fetch, the second merges into it
        assert [must_issue for _, _, must_issue in requests] == [True, False]
        assert gpu.finish_cycle is not None

    def test_remote_write_completes_via_ack(self, sim, fake_transport):
        gpu, _ = make_gpu(sim, fake_transport, {0: 0})
        host_cpu(sim, fake_transport)
        write = CompiledLane((1,), (0,), (1,))
        gpu.load_trace(CompiledGpuTrace((write,), instructions=100))
        gpu.start()
        sim.run()
        kinds = [p.kind for p in fake_transport.sent]
        assert PacketKind.WRITE_REQ in kinds
        assert PacketKind.WRITE_ACK in kinds
        assert gpu.finish_cycle is not None

    def test_second_read_of_same_block_hits_l2(self, sim, fake_transport, calls):
        lookups = calls(SetAssociativeCache, "lookup")
        gpu = self._run_remote(sim, fake_transport, n_blocks=1)
        assert cache_hits(lookups) == 0
        # re-run same address: already filled into L2+L1 by the response
        assert gpu.l2.lookup(0)

    def test_global_window_throttles_issue(self, sim, fake_transport):
        gpu, _ = make_gpu(
            sim, fake_transport, {0: 0}, max_outstanding=2, lane_outstanding=64
        )
        host_cpu(sim, fake_transport)
        addrs = [i * BLOCK_BYTES for i in range(8)]
        gpu.load_trace(CompiledGpuTrace((reads(addrs, gap=0),), instructions=100))
        gpu.start()
        # after the first pump, at most 2 requests may be outstanding: a
        # probe posted now is next in FIFO order after the initial pump
        first_pump = []
        sim.post(0, lambda: first_pump.extend(
            p for p in fake_transport.sent if p.kind is PacketKind.READ_REQ
        ))
        sim.run()
        assert len(first_pump) == 2
        assert gpu.finish_cycle is not None
        assert gpu.remote_requests == 8


class TestWakeup:
    """The lane pump's wakeup timer fires when the earliest waiting lane's
    gap expires, whatever else holds the other lanes back."""

    def _run(self, sim, fake_transport, lanes, **overrides):
        gpu, _ = make_gpu(sim, fake_transport, {0: 0}, **overrides)
        host_cpu(sim, fake_transport)
        gpu.tlbs.translate(0)  # a warm TLB: no IOMMU walk holds a lane
        gpu.load_trace(CompiledGpuTrace(tuple(lanes), instructions=100))
        wakeups, issues = [], []
        schedule_at = sim.schedule_at

        def record_wakeup(time, callback):
            wakeups.append((sim.now, time))
            return schedule_at(time, callback)

        handle = gpu._handle_access

        def record_issue(lane, now):
            issues.append((now, lane.lane_id))
            handle(lane, now)

        sim.schedule_at = record_wakeup
        gpu._handle_access = record_issue
        gpu.start()
        sim.run()
        assert gpu.finish_cycle is not None
        return wakeups, issues

    def test_gap_expires_while_the_window_is_full(self, sim, fake_transport):
        # lane 0's read fills the one-slot GPU-wide window at cycle 0;
        # lane 1's gap still ends at 5, and the timer fires there even
        # though the window keeps lane 1 waiting until the read returns
        wakeups, issues = self._run(
            sim,
            fake_transport,
            [reads([0], gap=0), reads([64], gap=5)],
            max_outstanding=1,
        )
        assert wakeups == [(0, 5)]
        assert issues == [(0, 0), (241, 1)]
        assert (sim.pushes, sim.cancelled, sim.events_processed) == (8, 0, 8)

    def test_gap_expires_while_other_lanes_sit_at_their_cap(self, sim, fake_transport):
        # one slot per lane: lane 0 is at its cap from cycle 0 until its
        # read returns, while lanes 1 and 2 wake at their own gaps
        wakeups, issues = self._run(
            sim,
            fake_transport,
            [reads([0, 128], gap=0), reads([64], gap=7), reads([192], gap=12)],
            lane_outstanding=1,
        )
        assert wakeups == [(0, 7), (7, 12)]
        assert issues == [(0, 0), (7, 1), (12, 2), (241, 0)]
        assert (sim.pushes, sim.cancelled, sim.events_processed) == (15, 0, 15)


class TestMigration:
    def test_threshold_triggers_page_pull(self, sim, fake_transport):
        gpu, pt = make_gpu(sim, fake_transport, {0: 0}, threshold=3)
        host_cpu(sim, fake_transport)
        # 6 distinct blocks of the same CPU page, reads cross the threshold
        addrs = [i * BLOCK_BYTES for i in range(6)]
        gpu.load_trace(CompiledGpuTrace((reads(addrs, gap=2),), instructions=100))
        gpu.start()
        sim.run()
        assert pt.owner(0) == 1
        assert pt.migrations == 1
        kinds = [p.kind for p in fake_transport.sent]
        assert kinds.count(PacketKind.MIGRATION_REQ) == 1
        assert kinds.count(PacketKind.MIGRATION_DATA) == 64

    def test_pinned_page_never_migrates(self, sim, fake_transport):
        gpu, pt = make_gpu(sim, fake_transport, {0: 0}, threshold=2)
        gpu.migration_policy.pin(0)
        host_cpu(sim, fake_transport)
        addrs = [i * BLOCK_BYTES for i in range(6)]
        gpu.load_trace(CompiledGpuTrace((reads(addrs, gap=2),), instructions=100))
        gpu.start()
        sim.run()
        assert pt.owner(0) == 0
        assert pt.migrations == 0

    def test_migration_commit_callback_fires(self, sim, fake_transport):
        commits = []
        gpu, pt = make_gpu(sim, fake_transport, {0: 0}, threshold=1)
        gpu.on_migration_commit = lambda page, old, new: commits.append((page, old, new))
        host_cpu(sim, fake_transport)
        gpu.load_trace(CompiledGpuTrace((reads([0, 64], gap=2),), instructions=100))
        gpu.start()
        sim.run()
        assert commits == [(0, 0, 1)]

    def test_commit_waits_driver_and_shootdown_cycles(self, sim, fake_transport):
        gpu, pt = make_gpu(sim, fake_transport, {0: 0}, threshold=1)
        host_cpu(sim, fake_transport)
        arrivals = []
        deliver = fake_transport.handlers[gpu.node_id]

        def record(packet, now):
            if packet.kind is PacketKind.MIGRATION_DATA:
                arrivals.append((now, pt.owner(0)))
            deliver(packet, now)

        fake_transport.handlers[gpu.node_id] = record
        commits = []
        gpu.on_migration_commit = lambda page, old, new: commits.append((sim.now, pt.owner(page)))
        gpu.load_trace(CompiledGpuTrace((reads([0, 64], gap=2),), instructions=100))
        gpu.start()
        sim.run()
        assert len(arrivals) == BLOCKS_PER_PAGE
        assert {owner for _, owner in arrivals} == {0}
        cost = gpu.migration_cfg.driver_cycles + gpu.migration_cfg.shootdown_cycles
        assert commits == [(arrivals[-1][0] + cost, 1)]

    def test_invalidate_page_clears_state(self, sim, fake_transport):
        gpu, _ = make_gpu(sim, fake_transport, {1: 1})
        gpu.load_trace(CompiledGpuTrace((reads([PAGE_BYTES]),), instructions=10))
        gpu.start()
        sim.run()
        assert gpu.l2.lookup(PAGE_BYTES) and gpu.l1s[0].lookup(PAGE_BYTES)
        gpu.invalidate_page(1)
        assert not gpu.l2.lookup(PAGE_BYTES)
        assert not gpu.l1s[0].lookup(PAGE_BYTES)


class TestMemoryNode:
    """The one serve path, on the host CPU and on a GPU."""

    @pytest.mark.parametrize("server", ["cpu", "gpu"])
    @pytest.mark.parametrize(
        "kind, served_bytes, replies",
        [
            (PacketKind.READ_REQ, BLOCK_BYTES, [(PacketKind.DATA_RESP, 80)]),
            (PacketKind.WRITE_REQ, BLOCK_BYTES, [(PacketKind.WRITE_ACK, 16)]),
            (
                PacketKind.MIGRATION_REQ,
                PAGE_BYTES,
                [(PacketKind.MIGRATION_DATA, 80)] * BLOCKS_PER_PAGE,
            ),
        ],
    )
    def test_request_answered_when_memory_is_done(
        self, sim, fake_transport, calls, server, kind, served_bytes, replies
    ):
        if server == "cpu":
            node = host_cpu(sim, fake_transport)
        else:
            node, _ = make_gpu(sim, fake_transport, {1: 2}, node=2)
        sent = []
        fake_transport.send = lambda packet, now: sent.append((packet, now))
        memory = node.memory
        twin = HbmModel("twin", memory.access_latency, memory.bytes_per_cycle)
        done = twin.access(5, served_bytes)
        hbm = calls(HbmModel, "access")
        address = PAGE_BYTES + 3 * BLOCK_BYTES
        request = Packet(
            kind=kind, src=1, dst=node.node_id, size_bytes=16, txn_id=7, address=address
        )
        sim.post_at(5, lambda: node._on_message(request, sim.now))
        sim.run()
        assert [(p.kind, p.size_bytes) for p, _ in sent] == replies
        assert {(p.src, p.dst, now) for p, now in sent} == {(node.node_id, 1, done)}
        if kind is PacketKind.MIGRATION_REQ:
            assert [p.address for p, _ in sent] == [
                PAGE_BYTES + i * BLOCK_BYTES for i in range(BLOCKS_PER_PAGE)
            ]
        else:
            assert (sent[0][0].txn_id, sent[0][0].address) == (7, address)
        assert accesses_of(memory, hbm) == [(5, served_bytes)]
