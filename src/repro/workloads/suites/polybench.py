"""Polybench workloads: syr2k, atax, bicg, gesummv, mvt.

Dense linear-algebra kernels.  Matrices are row-blocked (local to their
compute owner); the shared vectors are page-interleaved across GPUs, so
vector sweeps generate strided remote traffic to every peer — the classic
medium-RPKI Polybench signature.  syr2k additionally re-reads whole remote
row blocks, putting it in the high-RPKI class.
"""

from __future__ import annotations

from repro.memory.address_space import Placement
from repro.workloads.builder import TraceBuilder
from repro.workloads.compiled import CompiledTrace


def _vector_sweep(b: TraceBuilder, gpu: int, lane: int, vec, n_blocks: int, gap: int) -> None:
    """Sample an interleaved vector across page boundaries.

    A matrix row's dot product walks the whole vector; striding past the
    64-block page size makes consecutive touches land on different owners,
    as a real page-interleaved allocation would be hit by column index.
    """
    start = (gpu * 17 + lane * 29) % vec.n_blocks
    b.burst(gpu, lane, vec, start, n_blocks, gap=gap, stride=67)


def syr2k(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8) -> CompiledTrace:
    """C += A·Bᵀ + B·Aᵀ rank-2k update (high RPKI).

    Each output row block needs *whole rows* of both A and B from every
    GPU: long 16-block bursts at a high rate with only FMA-length gaps.
    """
    b = TraceBuilder("syr2k", n_gpus, seed, n_lanes)
    rows = max(8, int(40 * scale))
    # A and B are re-read by every GPU each row (read-shared): the
    # locality API pins them for direct access instead of page ping-pong
    mat_a = b.alloc("A", n_gpus * 12 * 64, Placement.BLOCKED, pinned=True)
    mat_b = b.alloc("B", n_gpus * 12 * 64, Placement.BLOCKED, pinned=True)
    mat_c = b.alloc("C", n_gpus * 12 * 64, Placement.BLOCKED)

    for g in b.gpus():
        c_first, c_blocks = b.blocked_range(mat_c, g)
        # owner-major blocking: consume one source partition completely
        # before moving to the next (the communication-optimal loop order),
        # so destination phases drift slowly as in the paper's Fig. 14
        for peer_off in range(n_gpus):
            owner = b.peer_gpu(g, peer_off + 1)
            for row in range(rows):
                lane = row % n_lanes
                for mat in (mat_a, mat_b):
                    first, blocks = b.blocked_range(mat, owner)
                    if blocks == 0:
                        continue
                    b.burst(g, lane, mat, first + (row * 16) % max(1, blocks - 16), 16, gap=1)
                b.compute(g, lane, 30)
                b.burst(g, lane, mat_c, c_first + (row * 16) % max(1, c_blocks - 16),
                        4, gap=1, write=True)
    return b.build()


def atax(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8) -> CompiledTrace:
    """y = Aᵀ(A·x) (medium RPKI): two matrix passes, two vector sweeps."""
    b = TraceBuilder("atax", n_gpus, seed, n_lanes)
    rows = max(24, int(280 * scale))
    mat = b.alloc("A", n_gpus * 10 * 64, Placement.BLOCKED)
    x = b.alloc("x", n_gpus * 4 * 64, Placement.INTERLEAVED)
    tmp = b.alloc("tmp", n_gpus * 4 * 64, Placement.INTERLEAVED)

    for g in b.gpus():
        a_first, a_blocks = b.blocked_range(mat, g)
        for row in range(rows):
            lane = row % n_lanes
            # pass 1: tmp = A x — local row stream + interleaved x sweep
            b.burst(g, lane, mat, a_first + (row * 12) % max(1, a_blocks - 12), 12, gap=2)
            _vector_sweep(b, g, lane, x, 12, gap=2)
            b.compute(g, lane, 80)
            # pass 2: y = Aᵀ tmp — re-stream the row + interleaved tmp sweep
            b.burst(g, lane, mat, a_first + (row * 12) % max(1, a_blocks - 12), 12, gap=2)
            _vector_sweep(b, g, lane, tmp, 12, gap=2)
            b.compute(g, lane, 80)
    return b.build()


def bicg(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8) -> CompiledTrace:
    """BiCG kernel: s = Aᵀ·r and q = A·p (medium RPKI)."""
    b = TraceBuilder("bicg", n_gpus, seed, n_lanes)
    rows = max(24, int(280 * scale))
    mat = b.alloc("A", n_gpus * 10 * 64, Placement.BLOCKED)
    p = b.alloc("p", n_gpus * 4 * 64, Placement.INTERLEAVED)
    r = b.alloc("r", n_gpus * 4 * 64, Placement.INTERLEAVED)

    for g in b.gpus():
        a_first, a_blocks = b.blocked_range(mat, g)
        for row in range(rows):
            lane = row % n_lanes
            b.burst(g, lane, mat, a_first + (row * 10) % max(1, a_blocks - 10), 10, gap=2)
            _vector_sweep(b, g, lane, p, 10, gap=2)
            b.compute(g, lane, 70)
            b.burst(g, lane, mat, a_first + (row * 10 + 5) % max(1, a_blocks - 10), 10, gap=2)
            _vector_sweep(b, g, lane, r, 10, gap=2)
            b.compute(g, lane, 70)
    return b.build()


def gesummv(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8) -> CompiledTrace:
    """y = α·A·x + β·B·x (medium RPKI): two local matrices, shared x."""
    b = TraceBuilder("gesummv", n_gpus, seed, n_lanes)
    rows = max(24, int(280 * scale))
    mat_a = b.alloc("A", n_gpus * 8 * 64, Placement.BLOCKED)
    mat_b = b.alloc("B", n_gpus * 8 * 64, Placement.BLOCKED)
    x = b.alloc("x", n_gpus * 4 * 64, Placement.INTERLEAVED)

    for g in b.gpus():
        for row in range(rows):
            lane = row % n_lanes
            for mat in (mat_a, mat_b):
                first, blocks = b.blocked_range(mat, g)
                b.burst(g, lane, mat, first + (row * 10) % max(1, blocks - 10), 10, gap=3)
                _vector_sweep(b, g, lane, x, 10, gap=3)
                b.compute(g, lane, 60)
    return b.build()


def mvt(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8) -> CompiledTrace:
    """x1 += A·y1, x2 += Aᵀ·y2 (medium RPKI)."""
    b = TraceBuilder("mvt", n_gpus, seed, n_lanes)
    rows = max(24, int(280 * scale))
    mat = b.alloc("A", n_gpus * 10 * 64, Placement.BLOCKED)
    y1 = b.alloc("y1", n_gpus * 4 * 64, Placement.INTERLEAVED)
    y2 = b.alloc("y2", n_gpus * 4 * 64, Placement.INTERLEAVED)

    for g in b.gpus():
        a_first, a_blocks = b.blocked_range(mat, g)
        for row in range(rows):
            lane = row % n_lanes
            b.burst(g, lane, mat, a_first + (row * 14) % max(1, a_blocks - 14), 14, gap=2)
            _vector_sweep(b, g, lane, y1, 8, gap=3)
            b.compute(g, lane, 90)
            b.burst(g, lane, mat, a_first + (row * 14 + 7) % max(1, a_blocks - 14), 14, gap=2)
            _vector_sweep(b, g, lane, y2, 8, gap=3)
            b.compute(g, lane, 90)
    return b.build()


__all__ = ["syr2k", "atax", "bicg", "gesummv", "mvt"]
