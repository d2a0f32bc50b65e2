"""System topology: one host CPU plus N GPUs on shared ports.

Node numbering follows the paper's processor accounting ("3 GPUs + 1 CPU"
in the 4-GPU discussion): the CPU is node 0 and GPUs are nodes 1..N.

Bandwidth is modeled where real systems bound it — at the *ports*:

* **PCIe** (Table III: "PCIe-v4 bus, 32 GB/s"): a bus shared by all GPUs,
  one 32 B/cycle serialized channel per direction (CPU→GPUs, GPUs→CPU).
* **NVLink-class GPU fabric** (50 GB/s): each GPU owns one egress and one
  ingress port at 50 B/cycle; a GPU↔GPU message serializes on the source's
  egress port, crosses the wire, then serializes on the destination's
  ingress port (store-and-forward).  All-to-all traffic therefore contends
  at hot senders and hot receivers, as it does on real NVLink bridges.

Traffic totals are counted once per message at the topology level, so the
multi-stage path never double-counts bytes.
"""

from __future__ import annotations

from repro.interconnect.link import Channel
from repro.interconnect.packet import Packet

NodeId = int
CPU_NODE: NodeId = 0


#: Supported GPU-fabric organizations.
FABRICS = ("p2p", "ring", "switch")


class Topology:
    """Port-contended fabric: shared PCIe bus + a configurable GPU fabric.

    ``fabric`` selects how GPU↔GPU messages travel:

    * ``p2p``    — every GPU owns a full-rate egress and ingress port;
      all-to-all single hop (the default, matching NVLink bridges).
    * ``ring``   — GPUs form a bidirectional ring; a message hops through
      intermediate GPUs' ring links (shortest direction), so distant pairs
      share segment bandwidth — the rack-scale organization of [51].
    * ``switch`` — all GPU traffic crosses one central switch whose
      aggregate bandwidth is ``switch_factor ×`` a port's rate (an NVSwitch
      abstraction); ports stay per-GPU.
    """

    def __init__(
        self,
        n_gpus: int,
        pcie_bytes_per_cycle: float = 32.0,
        nvlink_bytes_per_cycle: float = 50.0,
        pcie_latency: int = 120,
        nvlink_latency: int = 60,
        fabric: str = "p2p",
        switch_factor: float = 4.0,
    ) -> None:
        if n_gpus < 1:
            raise ValueError("need at least one GPU")
        if fabric not in FABRICS:
            raise ValueError(f"unknown fabric {fabric!r}; expected one of {FABRICS}")
        self.n_gpus = n_gpus
        self.fabric = fabric
        self.pcie_bytes_per_cycle = pcie_bytes_per_cycle
        self.nvlink_bytes_per_cycle = nvlink_bytes_per_cycle
        # PCIe: one shared channel per direction carries the wire latency.
        self._pcie_down = Channel("pcie:cpu->gpus", pcie_bytes_per_cycle, pcie_latency)
        self._pcie_up = Channel("pcie:gpus->cpu", pcie_bytes_per_cycle, pcie_latency)
        # NVLink: per-GPU egress (with wire latency) and ingress (switch hop).
        self._nv_egress = {
            g: Channel(f"nvlink:gpu{g}.out", nvlink_bytes_per_cycle, nvlink_latency)
            for g in self.gpu_nodes()
        }
        self._nv_ingress = {
            g: Channel(f"nvlink:gpu{g}.in", nvlink_bytes_per_cycle, 0)
            for g in self.gpu_nodes()
        }
        self._switch: Channel | None = None
        self._ring_cw: dict[int, Channel] = {}
        self._ring_ccw: dict[int, Channel] = {}
        if fabric == "switch":
            self._switch = Channel(
                "nvswitch", nvlink_bytes_per_cycle * switch_factor, 0
            )
        elif fabric == "ring":
            for g in self.gpu_nodes():
                self._ring_cw[g] = Channel(
                    f"ring:gpu{g}.cw", nvlink_bytes_per_cycle, nvlink_latency
                )
                self._ring_ccw[g] = Channel(
                    f"ring:gpu{g}.ccw", nvlink_bytes_per_cycle, nvlink_latency
                )
        self.total_bytes = 0
        self.base_bytes = 0
        self.meta_bytes = 0
        # The fabric is static after construction, so (src, dst) → stages is
        # memoized — path() runs once per pair instead of once per packet.
        # quarantine() is the one sanctioned mutation: it *replaces* a
        # pair's cache entry with a memoized alternate route.
        self._path_cache: dict[tuple[NodeId, NodeId], list[Channel]] = {}
        self._quarantined: set[tuple[NodeId, NodeId]] = set()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def nodes(self) -> list[NodeId]:
        return [CPU_NODE, *self.gpu_nodes()]

    def gpu_nodes(self) -> list[NodeId]:
        return list(range(1, self.n_gpus + 1))

    def peers_of(self, node: NodeId) -> list[NodeId]:
        return [n for n in self.nodes() if n != node]

    def _validate(self, node: NodeId) -> None:
        if node != CPU_NODE and node not in self._nv_egress:
            raise ValueError(f"node {node} is not part of this topology")

    def path(self, src: NodeId, dst: NodeId) -> list[Channel]:
        """The ordered channel stages a (src → dst) message traverses."""
        cached = self._path_cache.get((src, dst))
        if cached is not None:
            return cached
        path = self._build_path(src, dst)
        self._path_cache[(src, dst)] = path
        return path

    def _build_path(self, src: NodeId, dst: NodeId) -> list[Channel]:
        self._validate(src)
        self._validate(dst)
        if src == dst:
            raise ValueError("no path from a node to itself")
        if src == CPU_NODE:
            return [self._pcie_down]
        if dst == CPU_NODE:
            return [self._pcie_up]
        if self.fabric == "switch":
            return [self._nv_egress[src], self._switch, self._nv_ingress[dst]]
        if self.fabric == "ring":
            return self._ring_path(src, dst)
        return [self._nv_egress[src], self._nv_ingress[dst]]

    def _ring_path(self, src: NodeId, dst: NodeId) -> list[Channel]:
        """Hop along the shorter ring direction through intermediate GPUs."""
        n = self.n_gpus
        clockwise = (dst - src) % n <= (src - dst) % n
        return self._ring_walk(src, dst, clockwise=clockwise)

    def _ring_walk(self, src: NodeId, dst: NodeId, clockwise: bool) -> list[Channel]:
        n = self.n_gpus
        hops = (dst - src) % n if clockwise else (src - dst) % n
        stages: list[Channel] = []
        node = src
        for _ in range(hops):
            if clockwise:
                stages.append(self._ring_cw[node])
                node = 1 + (node % n)
            else:
                stages.append(self._ring_ccw[node])
                node = 1 + ((node - 2) % n)
        return stages

    # ------------------------------------------------------------------
    # Quarantine / failover
    # ------------------------------------------------------------------
    def quarantine(self, src: NodeId, dst: NodeId) -> bool:
        """Take the (src → dst) direct route out of service.

        Called when repeated attack detections implicate the pair's
        physical wire.  The pair's memoized path is replaced by an
        alternate route that avoids the direct link, so subsequent sends
        (including in-flight recovery retransmissions) detour around the
        compromised segment.  Returns False — and changes nothing — when
        no alternate exists (e.g. CPU↔GPU traffic owns exactly one shared
        PCIe bus); callers then stay on the guarded direct route.
        """
        if (src, dst) in self._quarantined:
            return True
        alt = self._alternate_path(src, dst)
        if alt is None:
            return False
        self._quarantined.add((src, dst))
        self._path_cache[(src, dst)] = alt
        return True

    def is_quarantined(self, src: NodeId, dst: NodeId) -> bool:
        return (src, dst) in self._quarantined

    def _alternate_path(self, src: NodeId, dst: NodeId) -> list[Channel] | None:
        """A route (src → dst) avoiding the pair's direct fabric segment."""
        self._validate(src)
        self._validate(dst)
        if src == dst:
            raise ValueError("no path from a node to itself")
        if src == CPU_NODE or dst == CPU_NODE:
            return None  # one shared PCIe bus per direction: nothing to fail over to
        via = next((g for g in self.gpu_nodes() if g != src and g != dst), None)
        if self.fabric == "ring":
            # The other ring direction reaches dst over disjoint segments.
            n = self.n_gpus
            clockwise = (dst - src) % n <= (src - dst) % n
            return self._ring_walk(src, dst, clockwise=not clockwise)
        if self.fabric == "switch":
            if via is None:
                return [self._nv_egress[src], self._pcie_up, self._pcie_down, self._nv_ingress[dst]]
            # Double switch transit: store-and-forward through an
            # intermediate GPU's ports, avoiding the direct crossing.
            return [
                self._nv_egress[src],
                self._switch,
                self._nv_ingress[via],
                self._nv_egress[via],
                self._switch,
                self._nv_ingress[dst],
            ]
        # p2p: relay through a third GPU, or detour over the host bus.
        if via is None:
            return [self._nv_egress[src], self._pcie_up, self._pcie_down, self._nv_ingress[dst]]
        return [
            self._nv_egress[src],
            self._nv_ingress[via],
            self._nv_egress[via],
            self._nv_ingress[dst],
        ]

    # ------------------------------------------------------------------
    # Transfer
    # ------------------------------------------------------------------
    def send(self, packet: Packet, now: int) -> int:
        """Move ``packet`` through its path; returns the arrival cycle."""
        # the memoized path, read directly: path() runs once per pair
        stages = self._path_cache.get((packet.src, packet.dst))
        if stages is None:
            stages = self.path(packet.src, packet.dst)
        t = now
        for stage in stages:
            t = stage.send(packet, t)
        size = packet.size_bytes
        meta = packet.meta_bytes
        self.total_bytes += size
        self.base_bytes += size - meta
        self.meta_bytes += meta
        return t


__all__ = ["Topology", "NodeId", "CPU_NODE", "FABRICS"]
