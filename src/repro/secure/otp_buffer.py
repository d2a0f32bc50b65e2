"""Pad-stream model of OTP buffer entries.

A :class:`PadStream` holds the pre-generated one-time pads for one
(direction, peer) message stream.  The AES-GCM engines are fully pipelined
(§IV-A), so consuming a pad immediately starts generating its replacement,
ready ``latency`` cycles later; what bounds pre-generation is the *number
of buffer entries* the stream owns.

A message acquiring a pad observes a wait ``w``:

* ``w == 0``            → **OTP_Hit** — latency fully hidden,
* ``0 < w < latency``   → **OTP_Partial** — a refill was in flight,
* ``w == latency``      → **OTP_Miss** — generation had not begun (or the
  stored pads were for the wrong counters: a *desync*, which always costs
  the full generation latency and discards the stale pad).

This is exactly the decomposition of Figs 10/22.  Because the engine is
fully pipelined, a message never waits more than one generation latency:
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
from dataclasses import dataclass
from enum import Enum


class PadOutcome(Enum):
    HIT = "hit"
    PARTIAL = "partial"
    MISS = "miss"

    #: ``value`` as a plain attribute (set per member below): the outcome
    #: stats count under it on every acquisition, and reading ``value``
    #: goes through Enum's Python-level descriptor
    key: str


for _outcome in PadOutcome:
    _outcome.key = _outcome.value
del _outcome


@dataclass(frozen=True, slots=True)
class PadGrant:
    """Result of acquiring a pad: how long the message waited and why.

    Grants are frozen, so a stream hands out one shared grant for every
    hit and one for every full-latency miss; only a partial wait builds a
    new one.
    """

    wait: int
    outcome: PadOutcome

    @property
    def hidden(self) -> bool:
        return self.outcome is PadOutcome.HIT


#: The grant of every hit: the pad was ready, nothing waited.
HIT_GRANT = PadGrant(wait=0, outcome=PadOutcome.HIT)


class PadStream:
    """Pre-generated pads for one (direction, peer) stream."""

    __slots__ = ("latency", "miss_grant", "_ready", "last_use")

    def __init__(self, latency: int, capacity: int, now: int = 0, prefilled: bool = True) -> None:
        if latency < 1:
            raise ValueError("pad generation latency must be >= 1")
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.latency = latency
        #: the grant of every full-latency miss of this stream
        self.miss_grant = PadGrant(wait=latency, outcome=PadOutcome.MISS)
        # min-heap of cycle times at which each buffered pad becomes ready
        self._ready: list[int] = [now if prefilled else now + latency] * capacity
        heapq.heapify(self._ready)
        #: cycle of the latest acquisition; Cached's LRU victim choice reads it
        self.last_use = now

    @property
    def capacity(self) -> int:
        return len(self._ready)

    def earliest_ready(self) -> int | None:
        return self._ready[0] if self._ready else None

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def consume(self, now: int) -> PadGrant:
        """Take a pad for the next counter value at cycle ``now``."""
        self.last_use = now
        if not self._ready:
            # No buffer entry at all: generate on demand, nothing to refill.
            return self.miss_grant
        # Take the earliest pad; the freed entry immediately begins
        # pre-generating a future one (one heapreplace: pop, then push).
        ready = heapq.heapreplace(self._ready, now + self.latency)
        if ready <= now:
            return HIT_GRANT
        # Pipelined engine: even if the pre-generation pipeline is behind,
        # on-demand generation for this message starts *now*, so the wait
        # never exceeds one generation latency.
        wait = ready - now
        if wait < self.latency:
            return PadGrant(wait=wait, outcome=PadOutcome.PARTIAL)
        return self.miss_grant

    def consume_desync(self, now: int) -> PadGrant:
        """Take a pad whose buffered pre-generations were all wrong.

        The stale pad is discarded and the correct one is generated on
        demand (full latency); its slot starts regenerating for the next
        expected counter so a back-to-back follow-up can hit.
        """
        self.last_use = now
        if self._ready:
            heapq.heapreplace(self._ready, now + self.latency)
        return self.miss_grant

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


__all__ = ["HIT_GRANT", "PadOutcome", "PadGrant", "PadStream"]
