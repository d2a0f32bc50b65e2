"""Collective-communication trace machinery (ring, tree, grid schedules).

The Table IV kernels exercise the secure channel with *kernel-shaped*
traffic — gathers, stencils, butterflies.  Production multi-GPU systems are
dominated by a different family: the NCCL-style collectives that implement
data-parallel training and sharded inference (all-reduce, all-gather,
reduce-scatter, broadcast, halo exchange).  Their communication structure
is exactly what the paper's mechanisms react to, but in regimes Table IV
never enters:

* **fixed ring neighbours** — ring all-reduce sends every byte to one peer,
  so a single (direction, peer) stream carries the whole load and the
  dynamic allocator's EWMA split should converge hard onto it;
* **rotating peers** — a direct all-gather pulls a different peer's shard
  each step, drifting the hot destination once per phase (the Fig 13/14
  pattern, but periodic and abrupt);
* **root-heavy trees** — tree all-reduce and broadcast concentrate traffic
  on the root's links for entire phases, starving the leaves;
* **bulk-synchronous bursts** — every step moves one chunk as a dense
  back-to-back burst and then computes, the best case for metadata
  batching and the worst case for per-message ACK traffic.

This module provides :class:`CollectiveBuilder` — schedule primitives on
top of :class:`~repro.workloads.builder.TraceBuilder` — plus the
:func:`training_step` composite (forward compute + reduce-scatter /
all-gather gradient step) used by ``examples/secure_inference_pipeline.py``.
The registry-facing generators live in
:mod:`repro.workloads.suites.nccl`; algorithm sketches and the parameter
table are documented in ``docs/WORKLOADS.md``.

Transfer modeling: "GPU *p* sends a chunk to GPU *g*" appears in a trace as
*g* reading the chunk's blocks from an array owned by *p* (the response
data crosses the p→g link, exactly like any remote read in this
simulator); reductions and received copies are local writes.  Message
buffers are allocated page-aligned per rank and pinned, modeling NCCL's
registered buffers — collective traffic must not be "solved" by page
migration.
"""

from __future__ import annotations

from repro.memory.address_space import ArrayHandle, Placement
from repro.workloads.builder import TraceBuilder
from repro.workloads.compiled import CompiledTrace

#: Wire-chunk granularity: blocks moved back-to-back before the next lane
#: takes over.  16 blocks = 1 KiB matches the batching controller's default
#: batch size, so a chunk is one "natural" batch.
DEFAULT_CHUNK_BLOCKS = 16

#: Cycles modeling the bulk-synchronous step barrier between collective
#: steps (kernel launch + synchronization on a real system).
STEP_BARRIER_CYCLES = 40

#: Cycles of reduction arithmetic per received chunk block.
REDUCE_CYCLES_PER_BLOCK = 2


class CollectiveBuilder(TraceBuilder):
    """Trace builder with collective-schedule primitives.

    Ranks are 0-based (``rank = gpu - 1``); GPU node ids stay 1-based as
    everywhere else in the simulator.
    """

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def gpu_of(self, rank: int) -> int:
        """GPU node id of a 0-based rank (modulo the ring)."""
        return 1 + rank % self.n_gpus

    def rank_of(self, gpu: int) -> int:
        return gpu - 1

    def alloc_shards(
        self, name: str, blocks_each: int, pinned: bool = True
    ) -> dict[int, ArrayHandle]:
        """One page-aligned, owner-placed message buffer per GPU.

        Pinned by default: collective buffers model NCCL-registered memory,
        whose pages never migrate under the access-counter policy.
        """
        return {
            g: self.alloc(f"{name}_{g}", blocks_each, Placement.OWNER, owner=g, pinned=pinned)
            for g in self.gpus()
        }

    # ------------------------------------------------------------------
    # Step primitives
    # ------------------------------------------------------------------
    def chunk_transfer(
        self,
        gpu: int,
        src: ArrayHandle,
        start_block: int,
        n_blocks: int,
        chunk_blocks: int = DEFAULT_CHUNK_BLOCKS,
        lane0: int = 0,
        write: bool = False,
    ) -> None:
        """Move ``n_blocks`` of ``src`` to ``gpu`` as dense wire chunks.

        The transfer is split into ``chunk_blocks``-sized bursts assigned
        round-robin to lanes starting at ``lane0`` — a multi-channel
        collective moving one logical chunk as overlapped DMA bursts.
        """
        if n_blocks <= 0:
            return
        lane = lane0 % self.n_lanes
        for off in range(0, n_blocks, chunk_blocks):
            self.burst(
                gpu, lane, src, start_block + off,
                min(chunk_blocks, n_blocks - off), gap=0, write=write,
            )
            lane = (lane + 1) % self.n_lanes

    def reduce_chunk(self, gpu: int, dst: ArrayHandle, start_block: int, n_blocks: int,
                     chunk_blocks: int = DEFAULT_CHUNK_BLOCKS, lane0: int = 0) -> None:
        """Local reduction of a just-received chunk: arithmetic + local writes."""
        lane = lane0 % self.n_lanes
        for off in range(0, n_blocks, chunk_blocks):
            size = min(chunk_blocks, n_blocks - off)
            self.compute(gpu, lane, REDUCE_CYCLES_PER_BLOCK * size)
            self.burst(gpu, lane, dst, start_block + off, size, gap=0, write=True)
            lane = (lane + 1) % self.n_lanes

    def step_barrier(self, gpu: int, cycles: int = STEP_BARRIER_CYCLES) -> None:
        """Bulk-synchronous step boundary: every lane pauses ``cycles``."""
        for lane in range(self.n_lanes):
            self.compute(gpu, lane, cycles)

    # ------------------------------------------------------------------
    # Collective schedules
    # ------------------------------------------------------------------
    def reduce_scatter_ring(
        self,
        shards: dict[int, ArrayHandle],
        chunk_blocks: int = DEFAULT_CHUNK_BLOCKS,
    ) -> None:
        """One ring reduce-scatter pass over per-rank buffers.

        The per-GPU message of ``M`` blocks is cut into ``N`` equal chunks.
        At step ``s`` rank ``r`` pulls chunk ``(r - s - 1) mod N`` from its
        left neighbour, reduces it into the same chunk of its own buffer,
        and barriers.  After ``N - 1`` steps each rank holds one fully
        reduced chunk; every rank moved exactly ``(N - 1) / N`` of the
        message, all of it to a single fixed peer.
        """
        n = self.n_gpus
        if n < 2:
            return
        per_chunk = shards[1].n_blocks // n
        for s in range(n - 1):
            for g in self.gpus():
                r = self.rank_of(g)
                left = self.gpu_of(r - 1)
                chunk = (r - s - 1) % n
                self.chunk_transfer(
                    g, shards[left], chunk * per_chunk, per_chunk,
                    chunk_blocks, lane0=s,
                )
                self.reduce_chunk(g, shards[g], chunk * per_chunk, per_chunk,
                                  chunk_blocks, lane0=s)
                self.step_barrier(g)

    def all_gather_ring(
        self,
        shards: dict[int, ArrayHandle],
        chunk_blocks: int = DEFAULT_CHUNK_BLOCKS,
    ) -> None:
        """One ring all-gather pass: circulate reduced chunks leftward.

        At step ``s`` rank ``r`` pulls chunk ``(r - s) mod N`` from its left
        neighbour — the chunk the neighbour finished (or received) one step
        earlier — and stores it locally.  Fixed single-peer traffic, no
        reduction arithmetic.
        """
        n = self.n_gpus
        if n < 2:
            return
        per_chunk = shards[1].n_blocks // n
        for s in range(n - 1):
            for g in self.gpus():
                r = self.rank_of(g)
                left = self.gpu_of(r - 1)
                chunk = (r - s) % n
                self.chunk_transfer(
                    g, shards[left], chunk * per_chunk, per_chunk,
                    chunk_blocks, lane0=s,
                )
                self.chunk_transfer(
                    g, shards[g], chunk * per_chunk, per_chunk,
                    chunk_blocks, lane0=s, write=True,
                )
                self.step_barrier(g)

    def all_gather_direct(
        self,
        shards: dict[int, ArrayHandle],
        chunk_blocks: int = DEFAULT_CHUNK_BLOCKS,
    ) -> None:
        """Rotated direct all-gather: pull each peer's shard in turn.

        Over a p2p fabric an all-gather can skip the ring staging and read
        every contribution straight from its owner; the rank-staggered
        schedule (rank ``r`` pulls from rank ``r - s - 1`` at step ``s``)
        keeps any single source from becoming a hotspot.  For the dynamic
        allocator this is the drifting-destination workload: the hot recv
        peer changes *every step*.
        """
        n = self.n_gpus
        if n < 2:
            return
        for s in range(n - 1):
            for g in self.gpus():
                r = self.rank_of(g)
                src = self.gpu_of(r - s - 1)
                self.chunk_transfer(g, shards[src], 0, shards[src].n_blocks,
                                    chunk_blocks, lane0=s)
                self.step_barrier(g)

    def _tree_edges(self) -> list[tuple[int, int]]:
        """(parent_rank, child_rank) edges of the binary reduction tree."""
        return [
            ((r - 1) // 2, r)
            for r in range(1, self.n_gpus)
        ]

    def tree_reduce(
        self,
        shards: dict[int, ArrayHandle],
        chunk_blocks: int = DEFAULT_CHUNK_BLOCKS,
    ) -> None:
        """Reduce full buffers up a binary tree to rank 0.

        Levels run leaves-first; at each level every parent pulls each
        child's whole message and reduces it locally.  Unlike the ring, the
        tree moves the *full* message per edge and concentrates the final
        level entirely on the root's recv links — the root-heavy phase.
        """
        if self.n_gpus < 2:
            return
        edges = self._tree_edges()
        # Deepest levels first: children must be reduced before their parent pulls.
        for parent, child in sorted(edges, key=lambda e: -e[1]):
            pg, cg = self.gpu_of(parent), self.gpu_of(child)
            self.chunk_transfer(pg, shards[cg], 0, shards[cg].n_blocks,
                                chunk_blocks, lane0=child)
            self.reduce_chunk(pg, shards[pg], 0, shards[pg].n_blocks,
                              chunk_blocks, lane0=child)
            self.step_barrier(pg)

    def tree_broadcast(
        self,
        shards: dict[int, ArrayHandle],
        root_rank: int = 0,
        chunk_blocks: int = DEFAULT_CHUNK_BLOCKS,
    ) -> None:
        """Broadcast rank 0's buffer down the binary tree.

        Each child pulls the full message from its parent, top level first;
        the root's send links carry the opening phase alone.
        """
        if self.n_gpus < 2:
            return
        for parent, child in sorted(self._tree_edges(), key=lambda e: e[1]):
            pg, cg = self.gpu_of((parent + root_rank) % self.n_gpus), \
                self.gpu_of((child + root_rank) % self.n_gpus)
            self.chunk_transfer(cg, shards[pg], 0, shards[pg].n_blocks,
                                chunk_blocks, lane0=child)
            self.chunk_transfer(cg, shards[cg], 0, shards[cg].n_blocks,
                                chunk_blocks, lane0=child, write=True)
            self.step_barrier(cg)

    def broadcast_flat(
        self,
        source: ArrayHandle,
        root: int,
        chunk_blocks: int = DEFAULT_CHUNK_BLOCKS,
    ) -> None:
        """Every non-root GPU pulls the root's full buffer directly.

        Rank-staggered start offsets spread the readers over the buffer so
        the root's send port serializes them rather than one page being
        thrashed; the root's send direction still carries (N-1)× the
        message — the pure single-hot-source phase.
        """
        n_blocks = source.n_blocks
        for g in self.gpus():
            if g == root:
                continue
            offset = ((self.rank_of(g) * n_blocks) // max(1, self.n_gpus))
            offset -= offset % chunk_blocks
            for off in range(0, n_blocks, chunk_blocks):
                start = (offset + off) % n_blocks
                size = min(chunk_blocks, n_blocks - start)
                self.chunk_transfer(g, source, start, size, chunk_blocks,
                                    lane0=off // chunk_blocks)
            self.step_barrier(g)

    # ------------------------------------------------------------------
    # 2D grid (halo exchange)
    # ------------------------------------------------------------------
    def grid_shape(self) -> tuple[int, int]:
        """Most-square (rows, cols) factorization of the GPU count."""
        best = (1, self.n_gpus)
        for rows in range(1, self.n_gpus + 1):
            if self.n_gpus % rows == 0:
                cols = self.n_gpus // rows
                if abs(rows - cols) <= abs(best[0] - best[1]):
                    best = (rows, cols)
        return best

    def grid_neighbors(self, gpu: int) -> dict[str, int]:
        """Non-periodic N/S/E/W neighbours of ``gpu`` in the 2D grid."""
        rows, cols = self.grid_shape()
        r, c = divmod(self.rank_of(gpu), cols)
        out: dict[str, int] = {}
        if r > 0:
            out["north"] = self.gpu_of((r - 1) * cols + c)
        if r < rows - 1:
            out["south"] = self.gpu_of((r + 1) * cols + c)
        if c > 0:
            out["west"] = self.gpu_of(r * cols + (c - 1))
        if c < cols - 1:
            out["east"] = self.gpu_of(r * cols + (c + 1))
        return out

    def halo_exchange_2d(
        self,
        tiles: dict[int, ArrayHandle],
        halo_blocks: int,
        chunk_blocks: int = DEFAULT_CHUNK_BLOCKS,
        lane0: int = 0,
    ) -> None:
        """One halo-exchange step: pull boundary strips from grid neighbours.

        North/south halos are contiguous rows (dense bursts); east/west
        halos are column strips, modeled as strided single-block reads —
        the metadata-unfriendly direction that batching cannot coalesce.
        """
        for g in self.gpus():
            for direction, peer in sorted(self.grid_neighbors(g).items()):
                tile = tiles[peer]
                if direction == "north":
                    self.chunk_transfer(g, tile, max(0, tile.n_blocks - halo_blocks),
                                        halo_blocks, chunk_blocks, lane0=lane0)
                elif direction == "south":
                    self.chunk_transfer(g, tile, 0, halo_blocks, chunk_blocks,
                                        lane0=lane0)
                else:
                    # Column strip: one block per "row" of the tile.
                    stride = max(1, tile.n_blocks // max(1, halo_blocks))
                    lane = lane0 % self.n_lanes
                    start = 0 if direction == "west" else stride - 1
                    self.burst(g, lane, tile, start, halo_blocks, gap=1,
                               stride=stride)
            self.step_barrier(g)


# ---------------------------------------------------------------------------
# Composite: one data-parallel training step
# ---------------------------------------------------------------------------
def training_step(
    n_gpus: int,
    seed: int = 0,
    scale: float = 1.0,
    n_lanes: int = 8,
    steps: int | None = None,
    grad_blocks: int | None = None,
) -> CompiledTrace:
    """Data-parallel training steps: forward compute + gradient all-reduce.

    Each step streams a batch of activations in from the host, runs the
    layer compute against locally blocked weights, then synchronizes
    gradients with the bandwidth-optimal reduce-scatter / all-gather pair —
    the composite every DDP framework executes per iteration, and the
    traffic shape the GPU-TEE characterization of Lee et al.
    (arXiv:2501.11771) identifies as the dominant secure-channel load.
    """
    b = CollectiveBuilder("training_step", n_gpus, seed, n_lanes)
    if steps is None:
        steps = max(2, int(4 * scale))
    if grad_blocks is None:
        grad_blocks = max(4 * n_gpus, int(768 * scale))
    grad_blocks -= grad_blocks % max(1, n_gpus)

    batch = b.alloc("batch", n_gpus * n_lanes * 24, Placement.OWNER, owner=0, pinned=True)
    weights = b.alloc("weights", n_gpus * 8 * 64, Placement.BLOCKED)
    grads = b.alloc_shards("grads", grad_blocks)

    for step in range(steps):
        for g in b.gpus():
            w_first, w_blocks = b.blocked_range(weights, g)
            for lane in range(n_lanes):
                # Forward: ingest the batch slice, compute against weights.
                start = ((b.rank_of(g) * n_lanes + lane) * 24 + step) % batch.n_blocks
                b.burst(g, lane, batch, start, 12, gap=0)
                b.burst(g, lane, weights,
                        w_first + (lane * 8) % max(1, w_blocks - 8), 8, gap=4)
                b.compute(g, lane, 160)  # backward pass, gradient math
        # Gradient synchronization: ring all-reduce = RS + AG.
        b.reduce_scatter_ring(grads)
        b.all_gather_ring(grads)
    return b.build()


__all__ = [
    "CollectiveBuilder",
    "DEFAULT_CHUNK_BLOCKS",
    "REDUCE_CYCLES_PER_BLOCK",
    "STEP_BARRIER_CYCLES",
    "training_step",
]
