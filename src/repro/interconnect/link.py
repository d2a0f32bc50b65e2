"""Bandwidth-serialized channel model with FIFO queueing.

A :class:`Channel` is one direction of a port or wire.  It serializes
packets at ``bytes_per_cycle`` (GB/s at the 1 GHz shader clock is
numerically bytes/cycle), then the wire adds a fixed propagation latency.
Back-to-back packets queue: a packet begins serialization when the
previous one finishes, so metadata bytes directly lengthen the queue — the
mechanism behind the paper's +Traffic overhead (Fig. 11).  Bytes are
counted once per message by the :class:`~repro.interconnect.topology.
Topology`, not per stage.
"""

from __future__ import annotations

from math import ceil

from repro.interconnect.packet import Packet


class Channel:
    """One direction of a link."""

    def __init__(self, name: str, bytes_per_cycle: float, latency: int) -> None:
        if bytes_per_cycle <= 0:
            raise ValueError("bytes_per_cycle must be positive")
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.name = name
        self.bytes_per_cycle = bytes_per_cycle
        self.latency = latency
        self.busy_until = 0

    def send(self, packet: Packet, now: int) -> int:
        """Accept ``packet`` at cycle ``now``; return its arrival cycle."""
        # Densest site in the simulator (every packet, every stage).
        busy = self.busy_until
        start = now if now > busy else busy
        cycles = ceil(packet.size_bytes / self.bytes_per_cycle)
        busy = start + (cycles if cycles > 1 else 1)
        self.busy_until = busy
        return busy + self.latency


__all__ = ["Channel"]
