"""The *Dynamic* scheme — the paper's contribution (§IV-B).

Structurally Private (per-(direction, peer) streams, synced counters), but
the per-stream capacities are repartitioned every interval ``T`` by the
EWMA-based :class:`~repro.core.dynamic_allocator.DynamicOtpAllocator`.
Directions and peers that carry more traffic receive more pad entries out
of the same fixed pool, so the storage cost stays at Private's while the
hit rate approaches that of a much larger table.  The allocator's initial
weights are an even split, so the scheme starts from Private's streams
(``otp_multiplier`` entries each).

The adjustment is applied lazily: the first monitoring sample or pad
acquisition at or past an interval boundary triggers the monitoring
rollover and capacity changes — equivalent to a hardware timer firing at
the boundary, without keeping the event queue alive when the workload has
drained.  Between boundaries a tick is one comparison against the cached
end of the interval; the allocator is called only once that end passes.
"""

from __future__ import annotations

from repro.configs import SecurityConfig
from repro.core.dynamic_allocator import AllocationPlan, DynamicOtpAllocator
from repro.secure.schemes.private import PrivateScheme


class DynamicScheme(PrivateScheme):
    name = "dynamic"

    def __init__(self, node: int, peers: list[int], security: SecurityConfig) -> None:
        super().__init__(node, peers, security)
        self.allocator = DynamicOtpAllocator(
            peers=peers,
            total_pool=security.total_otp_entries(len(peers)),
            alpha=security.alpha,
            beta=security.beta,
            interval=security.interval,
        )
        #: the cycle the allocator's current interval ends
        self._interval_end = self.allocator.interval_start + self.allocator.interval
        self.plans_applied = 0

    # ------------------------------------------------------------------
    # Interval machinery
    # ------------------------------------------------------------------
    def _tick(self, now: int) -> None:
        if now < self._interval_end:
            return
        allocator = self.allocator
        self._apply(allocator.maybe_adjust(now), now)
        self._interval_end = allocator.interval_start + allocator.interval

    def _apply(self, plan: AllocationPlan, now: int) -> None:
        # Hysteresis: repartitioning discards warmed pads, so +-1 jitter
        # around the current assignment is not worth acting on.  Only plans
        # that move at least one stream by two or more entries are applied.
        significant = any(
            abs(plan.send_per_peer[p] - self._send_streams[p].capacity) >= 2
            or abs(plan.recv_per_peer[p] - self._recv_streams[p].capacity) >= 2
            for p in plan.send_per_peer
        )
        if not significant:
            return
        for peer, capacity in plan.send_per_peer.items():
            self._send_streams[peer].set_capacity(now, capacity)
        for peer, capacity in plan.recv_per_peer.items():
            self._recv_streams[peer].set_capacity(now, capacity)
        self.plans_applied += 1

    # ------------------------------------------------------------------
    # Acquisition: an interval boundary may pass between a message's
    # enqueue and its turn at the crypto unit
    # ------------------------------------------------------------------
    def acquire_send(self, peer: int, now: int) -> tuple[int, bool]:
        self._tick(now)
        return super().acquire_send(peer, now)

    def acquire_recv(self, peer: int, now: int, synced: bool = True) -> int:
        self._tick(now)
        return super().acquire_recv(peer, now, synced)

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------
    def note_send(self, peer: int, now: int, demand: bool = True) -> None:
        """Monitoring phase: sample offered send load at *enqueue* time.

        Monitoring must sample offered load, not served load: counting at
        pad consumption lets a starved stream mask its own demand.
        """
        self._tick(now)
        if demand:
            # bulk migration blocks consume pads but do not steer the
            # allocation: they are latency-tolerant background traffic
            self.allocator.record_send(peer)

    def note_recv(self, peer: int, now: int, demand: bool = True) -> None:
        """Monitoring phase: sample offered receive load (see note_send)."""
        self._tick(now)
        if demand:
            self.allocator.record_recv(peer)


__all__ = ["DynamicScheme"]
