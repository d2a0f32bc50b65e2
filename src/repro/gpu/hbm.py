"""Memory model: fixed access latency plus bandwidth serialization.

Table III gives 512 GB/s per GPU stack.  At the 1 GHz shader clock that is
512 B/cycle, so a 64 B block occupies the stack for a fraction of a cycle;
HBM is effectively latency-bound for this study and only saturates under
heavy migration storms.  The model keeps a busy-until horizon anyway so
bulk 4 KB migrations see realistic pipelining.

Per the threat model (§II-B), HBM sits inside the trusted boundary, so no
encryption cost applies to local accesses — only the interconnects pay.
The host's DRAM runs on the same model at its own latency and bandwidth
(:mod:`repro.gpu.cpu`).
"""

from __future__ import annotations

from math import ceil


class HbmModel:
    """A processor's local memory: a GPU's 3D-stacked HBM or the host DRAM."""

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

    def access(self, now: int, size_bytes: int) -> int:
        """Serve ``size_bytes`` starting at ``now``; returns completion cycle."""
        if size_bytes <= 0:
            raise ValueError("access size must be positive")
        start = max(now, self._busy_until)
        occupancy = max(1, ceil(size_bytes / self.bytes_per_cycle))
        self._busy_until = start + occupancy
        return start + occupancy + self.access_latency


__all__ = ["HbmModel"]
