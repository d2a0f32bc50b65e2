"""SHOC workloads: spmv, stencil2d, fft.

The scalable heterogeneous-computing kernels: irregular sparse access,
iterative neighbour exchange, and staged butterfly communication whose
partner set rotates every stage — the pattern the Dynamic allocator's
interval adaptation is built for.
"""

from __future__ import annotations

from repro.memory.address_space import Placement
from repro.workloads.builder import TraceBuilder
from repro.workloads.compiled import CompiledTrace


def spmv(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8) -> CompiledTrace:
    """Sparse matrix-vector multiply (high RPKI).

    Row data (values + column indices) streams locally; every nonzero then
    gathers one element of the interleaved dense vector at an effectively
    random block — constant-rate irregular remote singles to all peers.
    """
    b = TraceBuilder("spmv", n_gpus, seed, n_lanes)
    nnz_per_lane = max(96, int(1000 * scale))
    matrix = b.alloc("csr", n_gpus * 14 * 64, Placement.BLOCKED)
    x = b.alloc("x", n_gpus * 4 * 64, Placement.INTERLEAVED)

    for g in b.gpus():
        m_first, m_blocks = b.blocked_range(matrix, g)
        for lane in range(n_lanes):
            b.burst(g, lane, matrix,
                    m_first + (lane * 12) % max(1, m_blocks - 12), 12, gap=1)
            cols = b.rng.integers(0, x.n_blocks, size=nnz_per_lane)
            b.gather(g, lane, x, cols, gap=1)
    return b.build()


def stencil2d(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8) -> CompiledTrace:
    """9-point 2D stencil, iterated (medium RPKI).

    Every iteration exchanges halo rows with both ring neighbours in
    16-block bursts, then sweeps the interior with stencil-arithmetic gaps.
    The halo bursts recur each iteration — steady pairwise communication.
    """
    b = TraceBuilder("stencil2d", n_gpus, seed, n_lanes)
    iterations = max(16, int(140 * scale))
    rows_per_iter = 4
    grid = b.alloc("grid", n_gpus * 12 * 64, Placement.BLOCKED)

    for g in b.gpus():
        first, blocks = b.blocked_range(grid, g)
        up, down = b.peer_gpu(g, -1), b.peer_gpu(g, +1)
        for it in range(iterations):
            lane = it % n_lanes
            if n_gpus > 1:
                up_first, up_blocks = b.blocked_range(grid, up)
                down_first, _ = b.blocked_range(grid, down)
                b.burst(g, lane, grid, up_first + max(0, up_blocks - 16), 16, gap=0)
                b.burst(g, lane, grid, down_first, 16, gap=0)
            for row in range(rows_per_iter):
                sweep_lane = (it + row) % n_lanes
                b.burst(g, sweep_lane, grid,
                        first + (it * 8 + row * 16) % max(1, blocks - 16), 16, gap=3)
                b.compute(g, sweep_lane, 80)
    return b.build()


def fft(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8) -> CompiledTrace:
    """Distributed radix-2 FFT (medium RPKI).

    ``log2`` stages: in stage ``s`` each GPU exchanges butterfly partners
    with GPU ``g XOR 2^s`` — one dominant destination per stage that
    switches abruptly at stage boundaries.  Within a stage, partner data
    arrives in dense 16-block bursts.
    """
    b = TraceBuilder("fft", n_gpus, seed, n_lanes)
    bursts_per_stage = max(12, int(64 * scale))
    data = b.alloc("signal", n_gpus * 12 * 64, Placement.BLOCKED)

    stages = max(1, (n_gpus - 1).bit_length())
    for g in b.gpus():
        my_first, my_blocks = b.blocked_range(data, g)
        for s in range(stages):
            partner = ((g - 1) ^ (1 << s)) + 1
            if partner > n_gpus or partner == g:
                partner = b.peer_gpu(g, 1 << s)
            p_first, p_blocks = b.blocked_range(data, partner)
            for t in range(bursts_per_stage):
                lane = (s * bursts_per_stage + t) % n_lanes
                if p_blocks:
                    b.burst(g, lane, data,
                            p_first + (t * 16) % max(1, p_blocks - 16), 16, gap=1)
                b.compute(g, lane, 50)  # twiddle multiplies
                b.burst(g, lane, data,
                        my_first + (t * 16) % max(1, my_blocks - 16), 16,
                        gap=2, write=(t % 2 == 1))
    return b.build()


__all__ = ["spmv", "stencil2d", "fft"]
