"""Stacked HBM model: fixed access latency plus bandwidth serialization.

Table III gives 512 GB/s per GPU stack.  At the 1 GHz shader clock that is
512 B/cycle, so a 64 B block occupies the stack for a fraction of a cycle;
HBM is effectively latency-bound for this study and only saturates under
heavy migration storms.  The model keeps a busy-until horizon anyway so
bulk 4 KB migrations see realistic pipelining.

Per the threat model (§II-B), HBM sits inside the trusted boundary, so no
encryption cost applies to local accesses — only the interconnects pay.
"""

from __future__ import annotations

from math import ceil

from repro.sim.stats import Counter


class HbmModel:
    """A GPU's local 3D-stacked memory."""

    def __init__(
        self,
        name: str,
        access_latency: int = 160,
        bytes_per_cycle: float = 512.0,
    ) -> None:
        if access_latency < 0 or bytes_per_cycle <= 0:
            raise ValueError("invalid HBM parameters")
        self.name = name
        self.access_latency = access_latency
        self.bytes_per_cycle = bytes_per_cycle
        self._busy_until = 0
        self._reads = Counter("reads")
        self._bytes = Counter("bytes")

    def access(self, now: int, size_bytes: int) -> int:
        """Serve ``size_bytes`` starting at ``now``; returns completion cycle."""
        if size_bytes <= 0:
            raise ValueError("access size must be positive")
        start = max(now, self._busy_until)
        occupancy = max(1, ceil(size_bytes / self.bytes_per_cycle))
        self._busy_until = start + occupancy
        self._reads.add()
        self._bytes.add(size_bytes)
        return start + occupancy + self.access_latency

    @property
    def total_bytes(self) -> int:
        return self._bytes.value

    @property
    def accesses(self) -> int:
        return self._reads.value


__all__ = ["HbmModel"]
