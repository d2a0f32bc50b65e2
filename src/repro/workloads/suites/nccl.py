"""NCCL-style collective workloads: the ``collective`` registry class.

Six trace generators mirroring the collectives that dominate production
multi-GPU traffic (DDP training, sharded inference): ring and tree
all-reduce, all-gather, reduce-scatter, broadcast, and a 2D halo exchange.
Schedules come from :mod:`repro.workloads.collectives`; algorithm sketches,
the parameter table, and which allocator behaviour each collective
stresses are documented in ``docs/WORKLOADS.md``.

All generators share the registry builder signature
``(n_gpus, seed, scale, n_lanes)``.  Message sizes are rounded to wire-
chunk multiples so every transfer decomposes into dense
:data:`~repro.workloads.collectives.DEFAULT_CHUNK_BLOCKS`-block bursts,
and each GPU streams its own buffer once up front (initialization +
local compute), which keeps single-GPU traces non-empty and the remote
fraction below 1.
"""

from __future__ import annotations

from repro.workloads.collectives import DEFAULT_CHUNK_BLOCKS, CollectiveBuilder
from repro.workloads.compiled import CompiledTrace


def _chunked(blocks: int, multiple: int) -> int:
    """Round ``blocks`` down to a positive multiple of ``multiple``."""
    return max(multiple, blocks - blocks % multiple)


def _warmup(b: CollectiveBuilder, shards, gap: int = 2) -> None:
    """Each GPU streams its own buffer once: init + local compute phase."""
    for g in b.gpus():
        shard = shards[g]
        per_lane = max(1, shard.n_blocks // b.n_lanes)
        for lane in range(b.n_lanes):
            b.burst(g, lane, shard, lane * per_lane, per_lane, gap=gap, write=True)
            b.compute(g, lane, 60)


def allreduce_ring(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8) -> CompiledTrace:
    """Bandwidth-optimal ring all-reduce: reduce-scatter + all-gather.

    Every byte a GPU moves goes to its fixed left ring neighbour, so one
    (recv, peer) stream per GPU carries the entire load — the dynamic
    allocator's EWMA split should converge onto it and stay there.
    """
    b = CollectiveBuilder("allreduce_ring", n_gpus, seed, n_lanes)
    unit = n_gpus * DEFAULT_CHUNK_BLOCKS
    message = _chunked(int(6144 * scale), unit)
    rounds = max(3, int(6 * scale))
    grads = b.alloc_shards("grads", message)
    _warmup(b, grads)
    for _ in range(rounds):
        b.reduce_scatter_ring(grads)
        b.all_gather_ring(grads)
    return b.build()


def allreduce_tree(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8) -> CompiledTrace:
    """Tree all-reduce: reduce up a binary tree, broadcast back down.

    Latency-optimal but bandwidth-hungry — the full message crosses every
    tree edge, and whole phases concentrate on the root's links while the
    leaves sit idle.  The root-heavy asymmetry is what a static equal
    per-peer OTP partition prices worst.
    """
    b = CollectiveBuilder("allreduce_tree", n_gpus, seed, n_lanes)
    message = _chunked(int(4096 * scale), DEFAULT_CHUNK_BLOCKS)
    rounds = max(2, int(4 * scale))
    grads = b.alloc_shards("grads", message)
    _warmup(b, grads)
    for _ in range(rounds):
        b.tree_reduce(grads)
        b.tree_broadcast(grads)
    return b.build()


def allgather(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8) -> CompiledTrace:
    """Rotated direct all-gather over the p2p fabric.

    Each step every GPU pulls a *different* peer's shard (rank-staggered to
    avoid hotspots), so the hot recv destination rotates once per step —
    the abrupt, periodic destination drift that stresses the EWMA
    repartitioning hardest.
    """
    b = CollectiveBuilder("allgather", n_gpus, seed, n_lanes)
    contribution = _chunked(int(2048 * scale), DEFAULT_CHUNK_BLOCKS)
    rounds = max(4, int(8 * scale))
    shards = b.alloc_shards("shards", contribution)
    _warmup(b, shards)
    for _ in range(rounds):
        b.all_gather_direct(shards)
    return b.build()


def reducescatter(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8) -> CompiledTrace:
    """Ring reduce-scatter alone: the gradient-sharding half of ZeRO/FSDP.

    Fixed-neighbour chunk rotation with reduction arithmetic between
    bursts — bulk-synchronous 1 KiB bursts separated by compute, the
    best case for metadata batching's one-MAC-per-16-blocks amortization.
    """
    b = CollectiveBuilder("reducescatter", n_gpus, seed, n_lanes)
    unit = n_gpus * DEFAULT_CHUNK_BLOCKS
    message = _chunked(int(6144 * scale), unit)
    rounds = max(5, int(10 * scale))
    grads = b.alloc_shards("grads", message)
    _warmup(b, grads)
    for _ in range(rounds):
        b.reduce_scatter_ring(grads)
    return b.build()


def broadcast(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8) -> CompiledTrace:
    """Flat broadcast from rank 0: one hot source, N-1 sinks.

    The root's send direction carries (N-1)x the message while its recv
    direction is idle — maximal send/recv asymmetry on one node, the case
    the per-direction EWMA split (Formula 1) exists for.
    """
    b = CollectiveBuilder("broadcast", n_gpus, seed, n_lanes)
    message = _chunked(int(3072 * scale), DEFAULT_CHUNK_BLOCKS)
    rounds = max(5, int(10 * scale))
    shards = b.alloc_shards("params", message)
    _warmup(b, shards)
    root = b.gpu_of(0)
    for _ in range(rounds):
        b.broadcast_flat(shards[root], root)
        b.step_barrier(root)
    return b.build()


def halo2d(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8) -> CompiledTrace:
    """2D grid halo exchange: domain decomposition on a GPU grid.

    Each iteration every GPU pulls boundary strips from up to four grid
    neighbours — dense row halos north/south, strided column halos
    east/west (the single-block pattern batching cannot coalesce) — then
    sweeps its interior with stencil-arithmetic gaps.
    """
    b = CollectiveBuilder("halo2d", n_gpus, seed, n_lanes)
    tile_blocks = _chunked(int(1024 * scale), DEFAULT_CHUNK_BLOCKS)
    iterations = max(80, int(160 * scale))
    halo = DEFAULT_CHUNK_BLOCKS
    tiles = b.alloc_shards("tile", tile_blocks, pinned=False)
    for it in range(iterations):
        b.halo_exchange_2d(tiles, halo_blocks=halo, lane0=it)
        for g in b.gpus():
            tile = tiles[g]
            lane = it % n_lanes
            b.burst(g, lane, tile, (it * halo) % tile.n_blocks,
                    min(halo, tile.n_blocks), gap=3, write=(it % 2 == 1))
            b.compute(g, lane, 90)
    return b.build()


__all__ = [
    "allreduce_ring",
    "allreduce_tree",
    "allgather",
    "reducescatter",
    "broadcast",
    "halo2d",
]
