"""GPU and host-CPU device models.

Every processor is a memory node that serves block reads, writes and page
pulls from its own memory; the host CPU is nothing more.  Each GPU is
trace-driven: compute-unit lanes replay generated memory-access
streams through L1/L2 TLBs and caches; misses to remote pages become secure
interconnect transactions.  The model keeps the knobs the paper's results
hinge on — bounded outstanding requests, bursty multi-lane issue, cache
filtering, page migration — and abstracts instruction execution into
inter-access gap cycles.
"""

from repro.gpu.cache import SetAssociativeCache
from repro.gpu.tlb import Tlb, TlbHierarchy
from repro.gpu.hbm import HbmModel
from repro.gpu.compute_unit import ComputeUnitLane
from repro.gpu.gpu import GpuDevice
from repro.gpu.cpu import MemoryNode

__all__ = [
    "SetAssociativeCache",
    "Tlb",
    "TlbHierarchy",
    "HbmModel",
    "ComputeUnitLane",
    "GpuDevice",
    "MemoryNode",
]
