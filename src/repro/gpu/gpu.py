"""Trace-driven GPU device model.

The device replays compute-unit lane streams through its TLB and cache
hierarchy.  Accesses that miss the caches are served from local HBM or, for
pages owned by another processor, become interconnect transactions routed
through the configured transport (which may be an unsecure fabric or a
secure channel layer).  An access-counter migration policy can instead pull
the whole page over (§II-A/V-A).

Progress throttling — the property that makes added communication latency
and bandwidth show up as end-to-end slowdown — comes from two windows:
a per-lane outstanding cap (wavefront dependencies) and a GPU-wide
outstanding-request window (MSHR capacity).

Hot-path notes: the pump replays :class:`~repro.workloads.compiled.
CompiledLane` integer arrays directly — no per-access objects — with lane
readiness inlined (the rule :meth:`~repro.gpu.compute_unit.ComputeUnitLane.
issue` enforces).  An issue grant allocates nothing: the pump scans the
lanes from a round-robin pointer and issues the first ready one.  Every one-shot completion callback goes through the
engine's no-handle ``post``/``post_at`` path, as a ``functools.partial``
over a bound method.  Only the wakeup timer, which is routinely
cancelled and rescheduled, takes an :class:`~repro.sim.engine.Event`
handle; a scan that finds no ready lane has seen every lane, so it also
yields the next wakeup without a second pass.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable

from repro.configs import GpuConfig, MigrationConfig
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.compute_unit import ComputeUnitLane
from repro.gpu.cpu import MemoryNode
from repro.gpu.hbm import HbmModel
from repro.gpu.tlb import TlbHierarchy
from repro.interconnect.packet import HEADER_BYTES, Packet, PacketKind
from repro.memory.address_space import BLOCK_BYTES, BLOCKS_PER_PAGE, PAGE_BYTES, page_of
from repro.memory.directory import BlockDirectory
from repro.memory.migration import AccessCounterMigrationPolicy, MigrationDecision
from repro.memory.page_table import PageTable
from repro.sim.engine import Simulator
from repro.transport import MessageTransport
from repro.workloads.compiled import CompiledGpuTrace

_txn_ids = itertools.count(1)


class GpuDevice(MemoryNode):
    """One GPU node: lanes, caches and remote-transaction logic over its
    HBM, which serves other nodes' requests as any memory node does."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        cfg: GpuConfig,
        transport: MessageTransport,
        page_table: PageTable,
        migration_policy: AccessCounterMigrationPolicy,
        migration_cfg: MigrationConfig,
        on_migration_commit: Callable[[int, int, int], None] | None = None,
    ) -> None:
        hbm = HbmModel(f"gpu{node_id}.hbm", cfg.hbm_latency, cfg.hbm_bytes_per_cycle)
        super().__init__(node_id, sim, transport, hbm)
        self.cfg = cfg
        self.page_table = page_table
        self.migration_policy = migration_policy
        self.migration_cfg = migration_cfg
        self.on_migration_commit = on_migration_commit or (lambda page, old, new: None)

        self.tlbs = TlbHierarchy(f"gpu{node_id}", cfg.l1_tlb_entries, cfg.l2_tlb_entries)
        self.l2 = SetAssociativeCache(f"gpu{node_id}.l2", cfg.l2_size, cfg.l2_assoc)
        self.l1s: list[SetAssociativeCache] = []
        self.lanes: list[ComputeUnitLane] = []
        self.directory = BlockDirectory()

        self.outstanding = 0  # GPU-wide remote window occupancy
        self._next_lane = 0  # round-robin issue pointer
        # In-flight remote reads live in ``directory`` only, keyed by block.
        self._pending: dict[int, ComputeUnitLane] = {}  # write txn id -> lane
        self._migrating: dict[int, int] = {}  # page -> blocks received
        self._wakeup = None
        self.finish_cycle: int | None = None
        self.instructions = 0
        #: remote reads issued (merged ones excluded) plus remote writes
        self.remote_requests = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def load_trace(self, trace: CompiledGpuTrace) -> None:
        """Install the workload's lane streams for this GPU."""
        if self.lanes:
            raise RuntimeError(f"gpu{self.node_id} already has a trace loaded")
        self.instructions = trace.instructions
        for lane_id, lane_trace in enumerate(trace.lanes):
            self.lanes.append(
                ComputeUnitLane(lane_id, lane_trace, self.cfg.lane_outstanding)
            )
            self.l1s.append(
                SetAssociativeCache(
                    f"gpu{self.node_id}.l1.{lane_id}", self.cfg.l1_size, self.cfg.l1_assoc
                )
            )

    def start(self) -> None:
        self.sim.post(0, self._pump)

    # ------------------------------------------------------------------
    # Issue pump
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        now = self.sim.now
        lanes = self.lanes
        n_lanes = len(lanes)
        max_out = self.cfg.max_outstanding
        while self.outstanding < max_out:
            # wavefront schedulers grant issue slots fairly; without
            # rotation, low-numbered lanes would monopolize the window.
            # Scan from the pointer and issue the first ready lane; the
            # pointer then moves past the winner.
            i = self._next_lane
            next_time = None
            for _ in lanes:
                lane = lanes[i]
                i += 1
                if i == n_lanes:
                    i = 0
                # lane readiness, inline: not exhausted and under its
                # outstanding cap, then ready once its gap has elapsed
                # and waiting until then
                if lane.index < lane.n and lane.outstanding < lane.max_outstanding:
                    ready_at = lane.ready_at
                    if now >= ready_at:
                        break
                    if next_time is None or ready_at < next_time:
                        next_time = ready_at
            else:
                # No lane is ready, and the scan saw every lane: the
                # earliest gap it passed is the next wakeup.
                if next_time is not None:
                    self._schedule_wakeup(now, next_time)
                break
            self._next_lane = i
            self._handle_access(lane, now)
        else:
            # the full window ended the loop, so the lanes past the last
            # winner went unseen: rescan them all
            next_time = self._next_gap_end(now)
            if next_time is not None:
                self._schedule_wakeup(now, next_time)
        if self.finish_cycle is None:
            self._check_finished(now)

    def _next_gap_end(self, now: int) -> int | None:
        """The earliest cycle a waiting lane's gap expires, if any lane waits."""
        next_time: int | None = None
        for l in self.lanes:
            # a waiting lane, inline: not exhausted, under its cap, gap
            # still running
            if l.index < l.n and l.outstanding < l.max_outstanding and now < l.ready_at:
                if next_time is None or l.ready_at < next_time:
                    next_time = l.ready_at
        return next_time

    def _schedule_wakeup(self, now: int, next_time: int) -> None:
        """Pump at ``next_time`` unless a live wakeup comes no later."""
        # an existing wakeup only counts if it is still in the future
        wakeup = self._wakeup
        if wakeup is not None and not wakeup.cancelled and wakeup.time > now:
            if wakeup.time <= next_time:
                return
            wakeup.cancel()
        self._wakeup = self.sim.schedule_at(next_time, self._pump)

    def _check_finished(self, now: int) -> None:
        lanes = self.lanes
        if not lanes:
            return
        for l in lanes:
            if l.index < l.n or l.outstanding:
                return
        self.finish_cycle = now

    # ------------------------------------------------------------------
    # Access classification
    # ------------------------------------------------------------------
    def _handle_access(self, lane: ComputeUnitLane, now: int) -> None:
        i = lane.index
        addr = lane.addrs[i]
        write = lane.writes[i]
        _, needs_walk = self.tlbs.translate(addr)
        if needs_walk:
            # The IOMMU walk round-trip stalls this access; the lane slot is
            # held so dependent work backs up behind the walk.
            lane.issue(now, consumes_slot=True)
            self.sim.post(
                self.cfg.iommu_walk_cycles, partial(self._access_memory, lane, addr, write, True)
            )
            return
        lane.issue(now, consumes_slot=False)
        self._access_memory(lane, addr, write, False)

    def _access_memory(
        self, lane: ComputeUnitLane, addr: int, write: int, slot_held: bool
    ) -> None:
        """Cache lookup and routing.  ``slot_held`` = lane slot already taken."""
        if not write:
            if self.l1s[lane.lane_id].lookup(addr):
                self._finish_access(lane, slot_held)
                return
            if self.l2.lookup(addr):
                self.l1s[lane.lane_id].fill(addr)
                self._finish_access(lane, slot_held)
                return

        page = addr // PAGE_BYTES
        owner = self.page_table.owner(page)
        if owner == self.node_id:
            self._local_access(lane, addr, write, slot_held)
        else:
            self._remote_access(lane, addr, write, owner, slot_held)

    def _finish_access(self, lane: ComputeUnitLane, slot_held: bool) -> None:
        if slot_held:
            lane.complete()
            self._pump()

    def _hold_slot(self, lane: ComputeUnitLane, slot_held: bool) -> None:
        """Ensure the lane slot is occupied for an in-flight access."""
        if not slot_held:
            lane.outstanding += 1

    # ------------------------------------------------------------------
    # Local path
    # ------------------------------------------------------------------
    def _local_access(
        self, lane: ComputeUnitLane, addr: int, write: int, slot_held: bool
    ) -> None:
        done = self.memory.access(self.sim.now, BLOCK_BYTES)
        if write:
            # Local writes retire without stalling the lane.
            self._finish_access(lane, slot_held)
            return
        self._hold_slot(lane, slot_held)
        self.sim.post_at(done, partial(self._local_read_done, lane, addr))

    def _local_read_done(self, lane: ComputeUnitLane, addr: int) -> None:
        self.l2.fill(addr)
        self.l1s[lane.lane_id].fill(addr)
        lane.complete()
        self._pump()

    # ------------------------------------------------------------------
    # Remote path
    # ------------------------------------------------------------------
    def _remote_access(
        self, lane: ComputeUnitLane, addr: int, write: int, owner: int, slot_held: bool
    ) -> None:
        page = addr // PAGE_BYTES
        decision = self.migration_policy.on_remote_access(page, self.node_id)
        if decision is MigrationDecision.MIGRATE and page not in self._migrating:
            self._start_migration(page, owner)

        self._hold_slot(lane, slot_held)
        if write:
            self._remote_write(lane, addr, owner)
        else:
            self._remote_read(lane, addr, owner)

    def _remote_read(self, lane: ComputeUnitLane, addr: int, owner: int) -> None:
        must_issue = self.directory.request(
            addr // BLOCK_BYTES, partial(self._remote_read_done, lane, addr)
        )
        if not must_issue:
            return  # merged into an in-flight fetch
        self.remote_requests += 1
        self.outstanding += 1
        packet = Packet(
            kind=PacketKind.READ_REQ,
            src=self.node_id,
            dst=owner,
            size_bytes=HEADER_BYTES,
            address=addr,
        )
        self.transport.send(packet, self.sim.now)

    def _remote_read_done(self, lane: ComputeUnitLane, addr: int, _finish_cycle: int) -> None:
        self.l1s[lane.lane_id].fill(addr)
        lane.complete()
        self._pump()

    def _remote_write(self, lane: ComputeUnitLane, addr: int, owner: int) -> None:
        self.remote_requests += 1
        self.outstanding += 1
        txn = next(_txn_ids)
        self._pending[txn] = lane
        packet = Packet(
            kind=PacketKind.WRITE_REQ,
            src=self.node_id,
            dst=owner,
            size_bytes=HEADER_BYTES + BLOCK_BYTES,
            txn_id=txn,
            address=addr,
        )
        self.transport.send(packet, self.sim.now)

    # ------------------------------------------------------------------
    # Page migration (requester side)
    # ------------------------------------------------------------------
    def _start_migration(self, page: int, owner: int) -> None:
        self._migrating[page] = 0
        packet = Packet(
            kind=PacketKind.MIGRATION_REQ,
            src=self.node_id,
            dst=owner,
            size_bytes=HEADER_BYTES,
            address=page * PAGE_BYTES,
        )
        self.transport.send(packet, self.sim.now)

    def _migration_block_arrived(self, page: int) -> None:
        received = self._migrating.get(page)
        if received is None:
            return
        received += 1
        self._migrating[page] = received
        if received >= BLOCKS_PER_PAGE:
            commit_delay = (
                self.migration_cfg.driver_cycles + self.migration_cfg.shootdown_cycles
            )
            self.sim.post(commit_delay, partial(self._commit_migration, page))

    def _commit_migration(self, page: int) -> None:
        if self._migrating.pop(page, None) is None:
            return
        old_owner = self.migration_policy.commit_migration(page, self.node_id)
        self.on_migration_commit(page, old_owner, self.node_id)

    def invalidate_page(self, page: int) -> None:
        """Migration shootdown against this device's TLBs and caches."""
        self.tlbs.shootdown(page)
        base = page * PAGE_BYTES
        self.l2.invalidate_page(base, PAGE_BYTES)
        for l1 in self.l1s:
            l1.invalidate_page(base, PAGE_BYTES)

    # ------------------------------------------------------------------
    # Message handling (requester role; MemoryNode serves requests)
    # ------------------------------------------------------------------
    def _on_message(self, packet: Packet, now: int) -> None:
        kind = packet.kind
        if kind is PacketKind.DATA_RESP:
            self._complete_read(packet, now)
        elif kind is PacketKind.WRITE_ACK:
            self._complete_write(packet)
        elif kind is PacketKind.MIGRATION_DATA:
            self._migration_block_arrived(page_of(packet.address))
        else:
            super()._on_message(packet, now)

    def _complete_read(self, packet: Packet, now: int) -> None:
        block = packet.address // BLOCK_BYTES  # the directory's key
        if not self.directory.in_flight(block):
            raise ValueError(f"gpu{self.node_id}: stray DATA_RESP for block {block}")
        self.outstanding -= 1
        self.l2.fill(packet.address)
        # No pump here: every waiter's _remote_read_done pumps after its
        # own lane completes, so the last one already saw this state.
        self.directory.complete(block, now)

    def _complete_write(self, packet: Packet) -> None:
        lane = self._pending.pop(packet.txn_id, None)
        if lane is None:
            raise ValueError(f"gpu{self.node_id}: stray WRITE_ACK txn {packet.txn_id}")
        self.outstanding -= 1
        lane.complete()
        self._pump()


__all__ = ["GpuDevice"]
