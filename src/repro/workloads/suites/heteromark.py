"""Hetero-Mark workloads: pagerank, kmeans, aes, fir.

CPU-GPU collaborative benchmarks: graph analytics with power-law remote
access, iterative clustering with broadcast-style centroid reads, and two
compute-dominated streaming kernels at the low-RPKI end of Table IV.
"""

from __future__ import annotations

from repro.memory.address_space import Placement
from repro.workloads.builder import TraceBuilder
from repro.workloads.compiled import CompiledTrace


def pagerank(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8) -> CompiledTrace:
    """Push-style PageRank over an interleaved rank vector (high RPKI).

    Each GPU walks its local adjacency partition and gathers neighbour
    ranks at Zipf-distributed vertex indices — irregular, high-rate remote
    singles spread over every peer, repeated for a few iterations.
    """
    b = TraceBuilder("pagerank", n_gpus, seed, n_lanes)
    gathers_per_lane = max(64, int(800 * scale))
    iterations = 3
    ranks = b.alloc("ranks", n_gpus * 8 * 64, Placement.INTERLEAVED)
    adjacency = b.alloc("adjacency", n_gpus * 16 * 64, Placement.BLOCKED)

    for g in b.gpus():
        adj_first, adj_blocks = b.blocked_range(adjacency, g)
        for it in range(iterations):
            for lane in range(n_lanes):
                # stream a slice of the local edge list…
                b.burst(g, lane, adjacency,
                        adj_first + (lane * 8) % max(1, adj_blocks - 8), 8, gap=1)
                # …then chase the neighbours' ranks (power-law popularity)
                raw = b.rng.zipf(1.5, size=gathers_per_lane)
                indices = (raw * 37 + it * 11 + lane) % ranks.n_blocks
                b.gather(g, lane, ranks, indices, gap=1)
    return b.build()


def kmeans(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8) -> CompiledTrace:
    """K-means clustering (medium RPKI).

    Points live locally; the centroid table (one per iteration, modelling
    its update between iterations) lives on GPU 1 and is re-read by every
    GPU in a 16-block burst per point batch — broadcast-like reuse traffic.
    """
    b = TraceBuilder("kmeans", n_gpus, seed, n_lanes)
    iterations = 3
    batches = max(16, int(160 * scale))
    points = b.alloc("points", n_gpus * 12 * 64, Placement.BLOCKED)
    centroid_tables = [
        b.alloc(f"centroids{it}", 16, Placement.OWNER, owner=1) for it in range(iterations)
    ]

    for g in b.gpus():
        pts_first, pts_blocks = b.blocked_range(points, g)
        for it, centroids in enumerate(centroid_tables):
            for batch in range(batches):
                lane = (it * batches + batch) % n_lanes
                b.burst(g, lane, centroids, 0, 16, gap=1)  # fetch current centroids
                b.burst(g, lane, points,
                        pts_first + (batch * 24) % max(1, pts_blocks - 24), 24, gap=6)
                b.compute(g, lane, 200)  # distance computations
    return b.build()


def aes_cipher(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8) -> CompiledTrace:
    """AES encryption of local buffers (low RPKI).

    The expanded key schedule is fetched once from the host; after that the
    kernel is round-function compute over locally owned state with long
    gaps between memory touches.
    """
    b = TraceBuilder("aes", n_gpus, seed, n_lanes)
    blocks_per_lane = max(16, int(200 * scale))
    state = b.alloc("state", n_gpus * 12 * 64, Placement.BLOCKED)
    keys = b.alloc("round_keys", 16, Placement.OWNER, owner=0, pinned=True)

    for g in b.gpus():
        st_first, st_blocks = b.blocked_range(state, g)
        for lane in range(n_lanes):
            b.burst(g, lane, keys, 0, 11, gap=2)  # one-time key-schedule fetch
            for i in range(blocks_per_lane):
                block = st_first + (lane * blocks_per_lane + i) % max(1, st_blocks)
                b.compute(g, lane, 35)  # ten rounds of S-box work
                b.access(g, lane, state.block_addr(block), gap=2)
                b.access(g, lane, state.block_addr(block), gap=30, write=True)
    return b.build()


def fir(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8) -> CompiledTrace:
    """FIR filter over a blocked signal (low RPKI).

    Taps come from the host once per lane; each chunk needs a tiny halo
    from the ring predecessor, then the sliding-window MACs dominate.
    """
    b = TraceBuilder("fir", n_gpus, seed, n_lanes)
    chunks = max(8, int(100 * scale))
    signal = b.alloc("signal", n_gpus * 10 * 64, Placement.BLOCKED)
    taps = b.alloc("taps", 4, Placement.OWNER, owner=0, pinned=True)

    for g in b.gpus():
        sig_first, sig_blocks = b.blocked_range(signal, g)
        prev = b.peer_gpu(g, -1)
        prev_first, prev_blocks = b.blocked_range(signal, prev)
        for lane in range(n_lanes):
            b.burst(g, lane, taps, 0, 4, gap=3)
            for c in range(chunks):
                if c == 0 and n_gpus > 1:
                    # boundary halo: last 2 blocks of the predecessor's slab
                    b.burst(g, lane, signal, prev_first + max(0, prev_blocks - 2), 2, gap=2)
                b.burst(g, lane, signal,
                        sig_first + (lane * chunks + c * 8) % max(1, sig_blocks - 8),
                        8, gap=12)
                b.compute(g, lane, 150)
    return b.build()


__all__ = ["pagerank", "kmeans", "aes_cipher", "fir"]
