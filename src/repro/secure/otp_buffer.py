"""Pad-stream model of OTP buffer entries.

A :class:`PadStream` holds the pre-generated one-time pads for one
(direction, peer) message stream.  The AES-GCM engines are fully pipelined
(§IV-A), so consuming a pad immediately starts generating its replacement,
ready ``latency`` cycles later; what bounds pre-generation is the *number
of buffer entries* the stream owns.

A message acquiring a pad observes a wait ``w``, which is all that
:meth:`PadStream.consume` and :meth:`PadStream.consume_desync` return:

* ``w == 0``            → **OTP_Hit** — latency fully hidden,
* ``0 < w < latency``   → **OTP_Partial** — a refill was in flight,
* ``w == latency``      → **OTP_Miss** — generation had not begun (or the
  stored pads were for the wrong counters: a *desync*, which always costs
  the full generation latency and discards the stale pad).

This is exactly the decomposition of Figs 10/22.  The stream does not
classify its waits: the scheme that asked for the pad sorts each wait into
its bucket, in one place (``OtpScheme._record`` in
:mod:`repro.secure.schemes.base`).

Because the engine is fully pipelined, a message never waits more than one
generation latency:
when its counter's pad was not even being pre-generated, the engine starts
it on demand the moment the message appears and streams the result straight
into the datapath.  Buffer capacity therefore bounds how much *hiding* is
possible, not how fast pads can be produced — a burst of ``B`` messages
against ``k`` entries gets ``k`` hits and ``B - k`` full-latency misses,
matching the paper's OTP 1x behaviour (~one AES latency per message, not a
pile-up).
"""

from __future__ import annotations

import heapq


class PadStream:
    """Pre-generated pads for one (direction, peer) stream."""

    __slots__ = ("latency", "_ready")

    def __init__(self, latency: int, capacity: int) -> None:
        if latency < 1:
            raise ValueError("pad generation latency must be >= 1")
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.latency = latency
        # min-heap of cycle times at which each buffered pad becomes ready;
        # every pad is ready at launch
        self._ready: list[int] = [0] * capacity

    @property
    def capacity(self) -> int:
        return len(self._ready)

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def consume(self, now: int) -> int:
        """Take a pad for the next counter value at cycle ``now``; returns
        the cycles the message waits for it."""
        if not self._ready:
            # No buffer entry at all: generate on demand, nothing to refill.
            return self.latency
        # Take the earliest pad; the freed entry immediately begins
        # pre-generating a future one (one heapreplace: pop, then push).
        ready = heapq.heapreplace(self._ready, now + self.latency)
        if ready <= now:
            return 0
        # Pipelined engine: even if the pre-generation pipeline is behind,
        # on-demand generation for this message starts *now*, so the wait
        # never exceeds one generation latency.
        wait = ready - now
        return wait if wait < self.latency else self.latency

    def consume_desync(self, now: int) -> int:
        """Take a pad whose buffered pre-generations were all wrong; the
        wait is always the full generation latency.

        The stale pad is discarded and the correct one is generated on
        demand; its slot starts regenerating for the next expected counter
        so a back-to-back follow-up can hit.
        """
        if self._ready:
            heapq.heapreplace(self._ready, now + self.latency)
        return self.latency

    # ------------------------------------------------------------------
    # Capacity management (Dynamic / Cached reallocate entries at runtime)
    # ------------------------------------------------------------------
    def grow(self, now: int, n: int = 1) -> None:
        """Assign ``n`` more buffer entries; their pads generate from now."""
        if n < 0:
            raise ValueError("cannot grow by a negative amount")
        for _ in range(n):
            heapq.heappush(self._ready, now + self.latency)

    def shrink(self, n: int = 1) -> int:
        """Drop up to ``n`` entries, sacrificing the least-ready pads first.

        Returns how many entries were actually removed.
        """
        if n < 0:
            raise ValueError("cannot shrink by a negative amount")
        removed = 0
        while removed < n and self._ready:
            self._ready.remove(max(self._ready))
            removed += 1
        heapq.heapify(self._ready)
        return removed

    def set_capacity(self, now: int, capacity: int) -> None:
        """Grow or shrink to exactly ``capacity`` entries."""
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        delta = capacity - self.capacity
        if delta > 0:
            self.grow(now, delta)
        elif delta < 0:
            self.shrink(-delta)


__all__ = ["PadStream"]
