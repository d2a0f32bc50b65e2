"""Trace builder: turns communication patterns into workload traces.

The paper's workloads differ along exactly the axes the proposed mechanisms
react to — remote-request rate (RPKI class), destination locality and its
drift over time (Figs 13/14), burstiness (Figs 15/16), and the page-
migration vs direct-access mix.  The builder provides pattern primitives
(tile bursts, halo exchanges, gathers, broadcasts, streams) from which each
benchmark's generator composes its phases; addresses come from real
allocations in the unified address space so page ownership and cache
behaviour emerge from the same structure.

Every (gpu, lane) pair accumulates three parallel integer lists —
``gaps``, ``addrs``, ``writes`` — and ``build()`` hands them to the typed
arrays of the :class:`~repro.workloads.compiled.CompiledTrace` the
simulator replays, so no per-access object is ever made.  ``gap`` cycles
of compute separate consecutive accesses of a lane.  Instruction counts —
needed for RPKI — are estimated as one wavefront instruction per gap cycle
plus one per memory access.
"""

from __future__ import annotations

import numpy as np

from repro.memory.address_space import AddressSpace, ArrayHandle, BLOCK_BYTES, Placement, page_of
from repro.workloads.compiled import CompiledGpuTrace, CompiledLane, CompiledTrace


class TraceBuilder:
    """Accumulates accesses for all GPUs of one workload."""

    def __init__(self, name: str, n_gpus: int, seed: int = 0, n_lanes: int = 8) -> None:
        if n_gpus < 1:
            raise ValueError("need at least one GPU")
        if n_lanes < 1:
            raise ValueError("need at least one lane per GPU")
        self.name = name
        self.n_gpus = n_gpus
        self.n_lanes = n_lanes
        self.rng = np.random.default_rng(seed)
        self.space = AddressSpace(gpu_nodes=list(range(1, n_gpus + 1)))
        self._lanes: dict[int, list[tuple[list[int], list[int], list[int]]]] = {
            g: [([], [], []) for _ in range(n_lanes)] for g in range(1, n_gpus + 1)
        }
        self._pending_gap: dict[tuple[int, int], int] = {}
        self._pinned_pages: set[int] = set()

    # ------------------------------------------------------------------
    # Allocation helpers
    # ------------------------------------------------------------------
    def alloc(
        self,
        name: str,
        n_blocks: int,
        placement: Placement = Placement.INTERLEAVED,
        owner: int | None = None,
        pinned: bool = False,
    ) -> ArrayHandle:
        """Allocate ``n_blocks`` 64 B blocks; optionally pin its pages."""
        handle = self.space.alloc(name, n_blocks * BLOCK_BYTES, placement, owner)
        if pinned:
            first = page_of(handle.base)
            self._pinned_pages.update(range(first, first + handle.n_pages))
        return handle

    def gpus(self) -> range:
        return range(1, self.n_gpus + 1)

    def peer_gpu(self, gpu: int, offset: int) -> int:
        """The GPU ``offset`` positions around the ring from ``gpu``."""
        return 1 + (gpu - 1 + offset) % self.n_gpus

    def blocked_range(self, array: ArrayHandle, gpu: int) -> tuple[int, int]:
        """(first_block, n_blocks) of ``array`` owned by ``gpu``.

        Mirrors :class:`AddressSpace`'s BLOCKED placement so generators can
        direct reads at a specific owner's partition.
        """
        from repro.memory.address_space import BLOCKS_PER_PAGE

        n_pages = array.n_pages
        per_gpu = max(1, (n_pages + self.n_gpus - 1) // self.n_gpus)
        first_page = per_gpu * (gpu - 1)
        if first_page >= n_pages:
            return 0, 0
        last_page = min(first_page + per_gpu, n_pages)
        if gpu == self.n_gpus:
            last_page = n_pages  # the last GPU absorbs the remainder
        first_block = first_page * BLOCKS_PER_PAGE
        n_blocks = min((last_page - first_page) * BLOCKS_PER_PAGE, array.n_blocks - first_block)
        return first_block, max(0, n_blocks)

    # ------------------------------------------------------------------
    # Primitive emission
    # ------------------------------------------------------------------
    def compute(self, gpu: int, lane: int, cycles: int) -> None:
        """Insert ``cycles`` of computation before the lane's next access."""
        if cycles < 0:
            raise ValueError("compute cycles must be non-negative")
        key = (gpu, lane)
        self._pending_gap[key] = self._pending_gap.get(key, 0) + cycles

    def access(self, gpu: int, lane: int, address: int, gap: int = 0, write: bool = False) -> None:
        """Emit one access on (gpu, lane) after ``gap`` compute cycles."""
        gap += self._pending_gap.pop((gpu, lane), 0)
        if gap < 0:
            raise ValueError("access gap must be non-negative")
        if address < 0:
            raise ValueError("address must be non-negative")
        gaps, addrs, writes = self._lanes[gpu][lane]
        gaps.append(gap)
        addrs.append(address)
        writes.append(1 if write else 0)

    def burst(
        self,
        gpu: int,
        lane: int,
        array: ArrayHandle,
        start_block: int,
        n_blocks: int,
        gap: int = 0,
        stride: int = 1,
        write: bool = False,
    ) -> None:
        """Read/write ``n_blocks`` consecutive (or strided) blocks rapidly.

        This is the builder's burst primitive: back-to-back block accesses
        with tiny gaps are what produce the paper's §III-B burstiness.
        """
        block = start_block
        for _ in range(n_blocks):
            self.access(gpu, lane, array.block_addr(block % array.n_blocks), gap, write)
            block += stride

    def gather(
        self,
        gpu: int,
        lane: int,
        array: ArrayHandle,
        indices: np.ndarray,
        gap: int = 0,
        write: bool = False,
    ) -> None:
        """Indexed (irregular) block accesses — sparse/graph patterns."""
        for idx in indices:
            self.access(gpu, lane, array.block_addr(int(idx) % array.n_blocks), gap, write)

    def stream(
        self,
        gpu: int,
        array: ArrayHandle,
        blocks_per_lane: int,
        gap: int = 0,
        write: bool = False,
        offset: int = 0,
    ) -> None:
        """Partition a contiguous streaming sweep across all lanes."""
        for lane in range(self.n_lanes):
            start = offset + lane * blocks_per_lane
            self.burst(gpu, lane, array, start, blocks_per_lane, gap=gap, write=write)

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def build(self, lane_jitter: int = 257) -> CompiledTrace:
        """Finalize the trace.

        ``lane_jitter`` adds a random start offset in ``[0, jitter)`` to
        the first gap of every non-empty lane, modeling wavefront-scheduler
        skew.  Without it all lanes march in lockstep and their bursts
        collide artificially, which distorts the baseline the secure
        schemes are measured against.
        """
        gpu_traces = {}
        for gpu, lanes in self._lanes.items():
            if not any(gaps for gaps, _, _ in lanes):
                continue
            compiled = []
            instructions = 0
            for gaps, addrs, writes in lanes:
                # the lane copies the lists, so the jitter leaves them as built
                lane = CompiledLane(gaps, addrs, writes)
                if gaps and lane_jitter > 0:
                    lane.gaps[0] += int(self.rng.integers(0, lane_jitter))
                instructions += sum(lane.gaps) + len(lane)
                compiled.append(lane)
            gpu_traces[gpu] = CompiledGpuTrace(tuple(compiled), instructions)
        trace = CompiledTrace(
            name=self.name,
            gpu_traces=gpu_traces,
            pinned_pages=frozenset(self._pinned_pages),
            initial_owners=self.space.initial_owners(),
        )
        trace.validate()
        return trace


__all__ = ["TraceBuilder"]
