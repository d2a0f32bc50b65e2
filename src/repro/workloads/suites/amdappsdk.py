"""AMD APP SDK workloads: matrixtranspose, simpleconvolution,
matrixmultiplication, floydwarshall.

Each generator reproduces the benchmark's multi-GPU decomposition at the
communication level: which blocks a GPU touches, in what order, how bursty,
and who owns them.
"""

from __future__ import annotations

from repro.memory.address_space import Placement
from repro.workloads.builder import TraceBuilder
from repro.workloads.compiled import CompiledTrace


def matrixtranspose(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8) -> CompiledTrace:
    """Out-of-place transpose, row-blocked (high RPKI).

    GPU ``g`` produces row-block ``g`` of the transpose by reading the
    corresponding *column* block of the input — which lives almost entirely
    on the other GPUs.  Reads stream in 16-block tile bursts with no
    compute between them; output writes are local.  Since each input page
    is read straight through, the access-counter policy migrates many pages
    mid-stream, exercising bulk 4 KB transfers.
    """
    b = TraceBuilder("matrixtranspose", n_gpus, seed, n_lanes)
    rows_per_gpu = max(6, int(48 * scale))
    row_blocks = 64  # one page-wide matrix row per row index
    # the input is streamed by every GPU (all-to-all, no per-GPU reuse):
    # the locality API pins it for direct block access, as for relu's input
    src = b.alloc("input", n_gpus * rows_per_gpu * row_blocks, Placement.BLOCKED, pinned=True)
    dst = b.alloc("output", n_gpus * rows_per_gpu * row_blocks, Placement.BLOCKED)

    for g in b.gpus():
        my_first, my_blocks = b.blocked_range(dst, g)
        lane = 0
        # source-major blocking: a communication-optimal transpose gathers
        # everything it needs from one source before moving to the next,
        # so each source forms a long-lived communication phase
        for peer_off in range(n_gpus):
            peer = b.peer_gpu(g, peer_off + 1)
            p_first, p_blocks = b.blocked_range(src, peer)
            if p_blocks == 0:
                continue
            for row in range(rows_per_gpu):
                tile = (row * 16) % max(1, p_blocks - 16)
                b.burst(g, lane, src, p_first + tile, 16, gap=0)
                # partial transposed-tile writeback, local
                b.burst(g, lane, dst, my_first + (row * 16) % max(1, my_blocks - 16), 4,
                        gap=0, write=True)
                lane = (lane + 1) % n_lanes
    return b.build()


def simpleconvolution(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8) -> CompiledTrace:
    """3x3 convolution over a row-blocked image (medium RPKI).

    Interior rows are local; the first/last row of each GPU's slab reads a
    halo row from the ring neighbours in a short burst per output row.
    Moderate compute (the multiply-accumulate window) separates accesses.
    """
    b = TraceBuilder("simpleconvolution", n_gpus, seed, n_lanes)
    rows_per_gpu = max(16, int(280 * scale))
    row_blocks = 64
    image = b.alloc("image", n_gpus * rows_per_gpu * row_blocks, Placement.BLOCKED)
    out = b.alloc("out", n_gpus * rows_per_gpu * row_blocks, Placement.BLOCKED)

    for g in b.gpus():
        first, _ = b.blocked_range(image, g)
        out_first, _ = b.blocked_range(out, g)
        up = b.peer_gpu(g, -1)
        down = b.peer_gpu(g, +1)
        for row in range(rows_per_gpu):
            lane = row % n_lanes
            # halo: boundary rows read 8-block bursts from neighbours
            if row == 0 and n_gpus > 1:
                up_first, up_blocks = b.blocked_range(image, up)
                b.burst(g, lane, image, up_first + max(0, up_blocks - 16), 8, gap=1)
            if row == rows_per_gpu - 1 and n_gpus > 1:
                down_first, _ = b.blocked_range(image, down)
                b.burst(g, lane, image, down_first, 8, gap=1)
            # interior sweep with convolution compute between blocks
            b.burst(g, lane, image, first + row * row_blocks, 24, gap=4)
            b.burst(g, lane, out, out_first + row * row_blocks, 8, gap=2, write=True)
    return b.build()


def matrixmultiplication(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8) -> CompiledTrace:
    """Tiled C = A x B with row-blocked A/B (medium RPKI).

    Runs ``n_gpus`` phases; in phase ``k`` GPU ``g`` consumes the B
    row-block owned by GPU ``(g + k) mod n`` — the rotating destination
    pattern of Figs 13/14.  B tiles stream in 16-block bursts, each touched
    twice (register-blocked reuse becomes L1 hits), with multiply-accumulate
    gaps between bursts.
    """
    b = TraceBuilder("matrixmultiplication", n_gpus, seed, n_lanes)
    tiles_per_phase = max(8, int(80 * scale))
    mat_a = b.alloc("A", n_gpus * 16 * 64, Placement.BLOCKED)
    mat_b = b.alloc("B", n_gpus * 16 * 64, Placement.BLOCKED)
    mat_c = b.alloc("C", n_gpus * 16 * 64, Placement.BLOCKED)

    for g in b.gpus():
        a_first, a_blocks = b.blocked_range(mat_a, g)
        c_first, c_blocks = b.blocked_range(mat_c, g)
        for phase in range(n_gpus):
            owner = b.peer_gpu(g, phase)
            b_first, b_blocks = b.blocked_range(mat_b, owner)
            for t in range(tiles_per_phase):
                lane = t % n_lanes
                tile = b_first + (t * 16) % max(1, b_blocks - 16)
                b.burst(g, lane, mat_b, tile, 16, gap=1)
                b.compute(g, lane, 40)  # FMA work on the fetched tile
                b.burst(g, lane, mat_b, tile, 16, gap=0)  # reuse: L1 hits
                b.burst(g, lane, mat_a, a_first + (t * 8) % max(1, a_blocks - 8), 8, gap=2)
                b.compute(g, lane, 60)
            # phase epilogue: accumulate into local C
            b.burst(g, phase % n_lanes, mat_c,
                    c_first + (phase * 16) % max(1, c_blocks - 16), 16, gap=1, write=True)
    return b.build()


def floydwarshall(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8) -> CompiledTrace:
    """All-pairs shortest paths, row-blocked distance matrix (low RPKI).

    Iteration ``k`` broadcasts pivot row ``k`` (a 16-block burst from its
    owner) to every GPU, followed by long local relaxation sweeps — heavy
    compute, little communication.
    """
    b = TraceBuilder("floydwarshall", n_gpus, seed, n_lanes)
    iters = max(8, int(56 * scale))
    dist = b.alloc("dist", n_gpus * 16 * 64, Placement.BLOCKED)

    for k in range(iters):
        pivot_owner = 1 + k % n_gpus
        p_first, p_blocks = b.blocked_range(dist, pivot_owner)
        pivot = p_first + (k * 16) % max(1, p_blocks - 16)
        for g in b.gpus():
            lane = k % n_lanes
            b.burst(g, lane, dist, pivot, 16, gap=1)  # pivot-row broadcast read
            my_first, my_blocks = b.blocked_range(dist, g)
            # local relaxation: compute-dominated sweep of our rows
            for chunk in range(4):
                b.compute(g, lane, 300)
                b.burst(g, lane, dist,
                        my_first + (k * 4 + chunk * 8) % max(1, my_blocks - 8), 8, gap=8)
            b.compute(g, lane, 200)
    return b.build()


__all__ = ["matrixtranspose", "simpleconvolution", "matrixmultiplication", "floydwarshall"]
