"""Host CPU node: the memory server for host-resident pages.

In the evaluated workloads the CPU stages input data (unified memory
first-touch on the host) and serves GPU requests: block reads/writes and
page-migration pulls.  Its DRAM sits outside the trusted boundary but is
protected by the CPU TEE's memory protection (PENGLAI-style, §IV-A), whose
cost is orthogonal to the interconnect protection this study measures — so
DRAM here is a latency/bandwidth server with no crypto charge of its own.

Address translation for GPU-side TLB misses is an IOMMU walk whose
latency is charged on the GPU (see ``GpuConfig.iommu_walk_cycles``).
"""

from __future__ import annotations

from math import ceil

from repro.interconnect.packet import Packet, PacketKind
from repro.memory.address_space import BLOCK_BYTES, BLOCKS_PER_PAGE, PAGE_BYTES, page_of
from repro.sim.engine import Simulator
from repro.transport import MessageTransport


class HostCpu:
    """The host processor (node 0)."""

    def __init__(
        self,
        sim: Simulator,
        transport: MessageTransport,
        node_id: int = 0,
        dram_latency: int = 220,
        dram_bytes_per_cycle: float = 64.0,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.transport = transport
        self.dram_latency = dram_latency
        self.dram_bytes_per_cycle = dram_bytes_per_cycle
        self._busy_until = 0
        transport.register(node_id, self._on_message)

    def _dram_access(self, size_bytes: int) -> int:
        start = max(self.sim.now, self._busy_until)
        occupancy = max(1, ceil(size_bytes / self.dram_bytes_per_cycle))
        self._busy_until = start + occupancy
        return start + occupancy + self.dram_latency

    # ------------------------------------------------------------------
    # Serving GPU requests
    # ------------------------------------------------------------------
    def _on_message(self, packet: Packet, now: int) -> None:
        kind = packet.kind
        if kind is PacketKind.READ_REQ:
            done = self._dram_access(BLOCK_BYTES)
            response = Packet(
                kind=PacketKind.DATA_RESP,
                src=self.node_id,
                dst=packet.src,
                size_bytes=16 + BLOCK_BYTES,
                txn_id=packet.txn_id,
                address=packet.address,
            )
            self.sim.post_at(done, lambda p=response: self.transport.send(p, self.sim.now))
        elif kind is PacketKind.WRITE_REQ:
            done = self._dram_access(BLOCK_BYTES)
            ack = Packet(
                kind=PacketKind.WRITE_ACK,
                src=self.node_id,
                dst=packet.src,
                size_bytes=16,
                txn_id=packet.txn_id,
                address=packet.address,
            )
            self.sim.post_at(done, lambda p=ack: self.transport.send(p, self.sim.now))
        elif kind is PacketKind.MIGRATION_REQ:
            done = self._dram_access(PAGE_BYTES)
            base = page_of(packet.address) * PAGE_BYTES

            def stream(requester=packet.src, page_base=base):
                for i in range(BLOCKS_PER_PAGE):
                    self.transport.send(
                        Packet(
                            kind=PacketKind.MIGRATION_DATA,
                            src=self.node_id,
                            dst=requester,
                            size_bytes=16 + BLOCK_BYTES,
                            address=page_base + i * BLOCK_BYTES,
                        ),
                        self.sim.now,
                    )

            self.sim.post_at(done, stream)
        else:
            raise ValueError(f"cpu: unexpected packet kind {kind}")

    def invalidate_page(self, page: int) -> None:
        """Migration shootdown — the CPU model keeps no GPU-visible caches."""


__all__ = ["HostCpu"]
