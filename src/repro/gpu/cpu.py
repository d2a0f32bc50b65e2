"""Memory nodes: every processor that serves block requests from its memory.

The host CPU and each GPU answer the same three requests from the memory
they own — a block read, a block write and a page pull — so
:class:`MemoryNode` holds that serve path once and
:class:`~repro.gpu.gpu.GpuDevice` builds on it.

In the evaluated workloads the CPU stages input data (unified memory
first-touch on the host) and serves GPU requests.  Its DRAM sits outside
the trusted boundary but is protected by the CPU TEE's memory protection
(PENGLAI-style, §IV-A), whose cost is orthogonal to the interconnect
protection this study measures — so the host is a plain memory node over a
DRAM :class:`~repro.gpu.hbm.HbmModel` with no crypto charge of its own.

Address translation for GPU-side TLB misses is an IOMMU walk whose
latency is charged on the GPU (see ``GpuConfig.iommu_walk_cycles``).
"""

from __future__ import annotations

from functools import partial

from repro.gpu.hbm import HbmModel
from repro.interconnect.packet import HEADER_BYTES, Packet, PacketKind
from repro.memory.address_space import BLOCK_BYTES, BLOCKS_PER_PAGE, PAGE_BYTES, page_of
from repro.sim.engine import Simulator
from repro.transport import MessageTransport

#: Host DRAM bandwidth in bytes per cycle.
DRAM_BYTES_PER_CYCLE = 64


class MemoryNode:
    """A processor that serves block reads, writes and page pulls."""

    def __init__(
        self, node_id: int, sim: Simulator, transport: MessageTransport, memory: HbmModel
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.transport = transport
        self.memory = memory
        transport.register(node_id, self._on_message)

    def _on_message(self, packet: Packet, now: int) -> None:
        """Answer a request once ``memory`` has served it."""
        kind = packet.kind
        if kind is PacketKind.MIGRATION_REQ:
            base = page_of(packet.address) * PAGE_BYTES
            done = self.memory.access(self.sim.now, PAGE_BYTES)
            self.sim.post_at(done, partial(self._stream_page, packet.src, base))
            return
        if kind is PacketKind.READ_REQ:
            reply, size = PacketKind.DATA_RESP, HEADER_BYTES + BLOCK_BYTES
        elif kind is PacketKind.WRITE_REQ:
            reply, size = PacketKind.WRITE_ACK, HEADER_BYTES
        else:
            raise ValueError(f"node {self.node_id}: unexpected packet kind {kind}")
        done = self.memory.access(self.sim.now, BLOCK_BYTES)
        response = Packet(
            kind=reply,
            src=self.node_id,
            dst=packet.src,
            size_bytes=size,
            txn_id=packet.txn_id,
            address=packet.address,
        )
        # the reply leaves at ``done``, the cycle the callback runs
        self.sim.post_at(done, partial(self.transport.send, response, done))

    def _stream_page(self, requester: int, base: int) -> None:
        """Send a pulled page to ``requester`` as 64 block packets."""
        for i in range(BLOCKS_PER_PAGE):
            block = Packet(
                kind=PacketKind.MIGRATION_DATA,
                src=self.node_id,
                dst=requester,
                size_bytes=HEADER_BYTES + BLOCK_BYTES,
                address=base + i * BLOCK_BYTES,
            )
            self.transport.send(block, self.sim.now)


__all__ = ["MemoryNode", "DRAM_BYTES_PER_CYCLE"]
