"""DNNMark workload: relu.

Inference-style activation functions stream input staged in host memory
through the GPUs exactly once — no reuse, so unified memory serves it by
direct block access over PCIe (the pages are pinned host-side, as a real
framework would advise for single-use streaming input).
"""

from __future__ import annotations

from repro.memory.address_space import Placement
from repro.workloads.builder import TraceBuilder
from repro.workloads.compiled import CompiledTrace


def relu(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8) -> CompiledTrace:
    """Elementwise max(x, 0) over CPU-resident activations (high RPKI).

    Every lane streams a disjoint slice of the input from the CPU with no
    compute gap (one compare per element), writing results to local memory.
    This is the PCIe-saturating, metadata-sensitive extreme of the suite.
    """
    b = TraceBuilder("relu", n_gpus, seed, n_lanes)
    blocks_per_lane = max(32, int(480 * scale))
    total = n_gpus * n_lanes * blocks_per_lane
    activations = b.alloc("activations", total, Placement.OWNER, owner=0, pinned=True)
    output = b.alloc("output", total, Placement.BLOCKED)

    for g in b.gpus():
        out_first, _ = b.blocked_range(output, g)
        gpu_base = (g - 1) * n_lanes * blocks_per_lane
        for lane in range(n_lanes):
            start = gpu_base + lane * blocks_per_lane
            b.burst(g, lane, activations, start, blocks_per_lane, gap=0)
            b.burst(g, lane, output, out_first + lane * blocks_per_lane,
                    blocks_per_lane // 2, gap=0, write=True)
    return b.build()


__all__ = ["relu"]
