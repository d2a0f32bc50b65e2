"""Interconnect substrate: packets, serialized links, and system topology.

Models the two untrusted channel classes of the paper's target system
(Fig. 2/17): PCIe-v4 between the host CPU and each GPU (32 GB/s) and
NVLink2-class point-to-point links among GPUs (50 GB/s).  Links serialize
packets at a bytes-per-cycle rate with FIFO queueing per direction, which is
what turns security-metadata bytes into measurable slowdown.
"""

from repro.interconnect.packet import Packet, PacketKind
from repro.interconnect.link import Channel
from repro.interconnect.topology import Topology, NodeId, CPU_NODE
from repro.interconnect.faults import FaultVerdict, LinkFailureError

__all__ = [
    "Packet",
    "PacketKind",
    "Channel",
    "Topology",
    "NodeId",
    "CPU_NODE",
    "FaultVerdict",
    "LinkFailureError",
]
