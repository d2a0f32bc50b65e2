"""Bandwidth-serialized link model with FIFO queueing.

Each :class:`Link` is full duplex: one :class:`Channel` per direction.  A
channel serializes packets at ``bytes_per_cycle`` (GB/s at the 1 GHz shader
clock is numerically bytes/cycle), then the wire adds a fixed propagation
latency.  Back-to-back packets queue: a packet begins serialization when the
previous one finishes, so metadata bytes directly lengthen the queue — the
mechanism behind the paper's +Traffic overhead (Fig. 11).
"""

from __future__ import annotations

from math import ceil

from repro.interconnect.packet import Packet
from repro.sim.stats import Counter


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
        self._bytes = Counter("bytes")
        self._base_bytes = Counter("base_bytes")
        self._meta_bytes = Counter("meta_bytes")

    def serialization_cycles(self, size_bytes: int) -> int:
        return max(1, ceil(size_bytes / self.bytes_per_cycle))

    def send(self, packet: Packet, now: int) -> int:
        """Accept ``packet`` at cycle ``now``; return its arrival cycle."""
        # Densest site in the simulator (every packet, every stage): the
        # packet's sizes are read once, serialization_cycles() and
        # Counter.add are inlined.
        size = packet.size_bytes
        meta = packet.meta_bytes
        busy = self.busy_until
        start = now if now > busy else busy
        cycles = ceil(size / self.bytes_per_cycle)
        busy = start + (cycles if cycles > 1 else 1)
        self.busy_until = busy
        self._bytes.value += size
        self._base_bytes.value += size - meta
        self._meta_bytes.value += meta
        return busy + self.latency

    @property
    def total_bytes(self) -> int:
        return self._bytes.value

    @property
    def meta_bytes(self) -> int:
        return self._meta_bytes.value

    @property
    def base_bytes(self) -> int:
        return self._base_bytes.value


class Link:
    """A full-duplex point-to-point link between nodes ``a`` and ``b``."""

    def __init__(
        self,
        a: int,
        b: int,
        bytes_per_cycle: float,
        latency: int,
        name: str | None = None,
    ) -> None:
        if a == b:
            raise ValueError("a link must connect two distinct nodes")
        self.a, self.b = a, b
        base = name or f"link{a}-{b}"
        self._channels = {
            (a, b): Channel(f"{base}:{a}->{b}", bytes_per_cycle, latency),
            (b, a): Channel(f"{base}:{b}->{a}", bytes_per_cycle, latency),
        }

    def channel(self, src: int, dst: int) -> Channel:
        try:
            return self._channels[(src, dst)]
        except KeyError:
            raise ValueError(f"link {self.a}<->{self.b} does not carry {src}->{dst}") from None

    def send(self, packet: Packet, now: int) -> int:
        return self.channel(packet.src, packet.dst).send(packet, now)

    def channels(self) -> list[Channel]:
        return list(self._channels.values())

    @property
    def total_bytes(self) -> int:
        return sum(c.total_bytes for c in self._channels.values())

    @property
    def meta_bytes(self) -> int:
        return sum(c.meta_bytes for c in self._channels.values())

    @property
    def base_bytes(self) -> int:
        return sum(c.base_bytes for c in self._channels.values())


__all__ = ["Channel", "Link"]
