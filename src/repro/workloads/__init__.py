"""Workload traces: the 17 Table IV benchmarks plus the collective suite.

The paper drives MGPUSim with binaries from five suites; this package
substitutes trace generators that reproduce each benchmark's multi-GPU
*communication structure* — remote-request rate, destination locality and
drift, burstiness, and migration/direct-access mix — which is what the
evaluated mechanisms respond to (see DESIGN.md §5).  Beyond Table IV, the
``collective`` class adds NCCL-style collective-communication workloads
(ring/tree all-reduce, all-gather, reduce-scatter, broadcast, 2D halo
exchange); see ``docs/WORKLOADS.md`` for the full catalog.
"""

from repro.workloads.builder import TraceBuilder
from repro.workloads.collectives import CollectiveBuilder, training_step
from repro.workloads.compiled import CompiledTrace
from repro.workloads.registry import (
    WorkloadSpec,
    all_collectives,
    all_workloads,
    get_workload,
    workloads_in_class,
)
from repro.workloads.rpki import classify_rpki, rpki_of

__all__ = [
    "CompiledTrace",
    "TraceBuilder",
    "CollectiveBuilder",
    "training_step",
    "WorkloadSpec",
    "all_workloads",
    "all_collectives",
    "get_workload",
    "workloads_in_class",
    "classify_rpki",
    "rpki_of",
]
