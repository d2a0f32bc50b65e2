"""Compute-unit lane: the unit of trace replay inside a GPU.

A lane models a group of compute units executing one stream of the kernel.
It advances through its access stream; each access becomes eligible ``gap``
cycles after the previous one was issued.  Latency hiding is modeled by the
lane *not* blocking on individual loads — instead a per-lane cap on
outstanding remote requests (wavefront-dependency pressure) plus the GPU's
global window bound how far it can run ahead.

The replay state is flat: three parallel typed arrays (``gaps``,
``addrs``, ``writes`` — the :class:`~repro.workloads.compiled.CompiledLane`
layout) and an index.  The device pump reads the arrays directly; no
per-access object ever exists on the replay path.  A lane is *ready* when
its stream is not exhausted, it is under its outstanding cap, and its gap
has elapsed: the pump applies that rule inline, and :meth:`~ComputeUnitLane.
issue` refuses a lane that breaks it.
"""

from __future__ import annotations

from repro.workloads.compiled import CompiledLane


class ComputeUnitLane:
    """Replay state for one lane's access stream."""

    __slots__ = (
        "lane_id",
        "gaps",
        "addrs",
        "writes",
        "n",
        "max_outstanding",
        "index",
        "ready_at",
        "outstanding",
    )

    def __init__(
        self,
        lane_id: int,
        trace: CompiledLane,
        max_outstanding: int = 4,
    ) -> None:
        if max_outstanding < 1:
            raise ValueError("lane needs at least one outstanding slot")
        self.lane_id = lane_id
        self.gaps = trace.gaps
        self.addrs = trace.addrs
        self.writes = trace.writes
        self.n = len(trace.gaps)
        self.max_outstanding = max_outstanding
        self.index = 0
        self.ready_at = trace.gaps[0] if self.n else 0
        self.outstanding = 0

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    def issue(self, now: int, consumes_slot: bool) -> None:
        """Issue the next access at cycle ``now``.

        ``consumes_slot`` is True for accesses that stay outstanding
        (remote misses); cache hits and local accesses complete immediately
        from the lane's point of view.
        """
        # ready: not exhausted, under its outstanding cap, gap elapsed
        if (
            self.index >= self.n
            or self.outstanding >= self.max_outstanding
            or now < self.ready_at
        ):
            raise RuntimeError(f"lane {self.lane_id} not ready at {now}")
        index = self.index + 1
        self.index = index
        if consumes_slot:
            self.outstanding += 1
        if index < self.n:
            self.ready_at = now + self.gaps[index]

    def complete(self) -> None:
        """A previously issued outstanding access finished."""
        if self.outstanding <= 0:
            raise RuntimeError(f"lane {self.lane_id} has nothing outstanding")
        self.outstanding -= 1


__all__ = ["ComputeUnitLane"]
