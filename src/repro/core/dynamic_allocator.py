"""Dynamic OTP buffer allocation (§IV-B, Formulas 1–4).

Every interval ``T`` the allocator:

1. computes the send-direction weight
   ``S_{i+1} = (1-α) S_i + α · SReq_i / (SReq_i + RReq_i)``   (Formula 1)
2. splits the pool: ``SPad = Total · S``, ``RPad = Total − SPad``  (Formula 2)
3. per peer ``m``, smooths the within-direction share
   ``S^m_{i+1} = (1-β) S^m_i + β · SReq^m_i / SReq_i`` (and the receive
   analogue)                                                  (Formula 3)
4. assigns ``SPad^m = SPad · S^m`` / ``RPad^m = RPad · R^m``  (Formula 4)

The paper's formulas produce real numbers; hardware allocates whole buffer
entries, so this implementation integerizes each direction's assignment
with the largest-remainder method, which preserves the pool total exactly
(a property the tests assert).

Intervals with zero traffic leave the EWMAs untouched — there is no ratio
to fold in — matching a hardware implementation that only updates counters
it observed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.ewma import Ewma


def largest_remainder(total: int, weights: list[float]) -> list[int]:
    """Apportion ``total`` integer units proportionally to ``weights``.

    Falls back to an even split when all weights are zero.  The result
    always sums to ``total`` and every share is non-negative.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if not weights:
        return []
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    weight_sum = sum(weights)
    if weight_sum <= 0.0:
        weights = [1.0] * len(weights)
        weight_sum = float(len(weights))
    exact = [total * w / weight_sum for w in weights]
    floors = [int(e) for e in exact]
    shortfall = total - sum(floors)
    # Tie-break order is part of the function's contract: largest remainder
    # first, then largest weight, then *ascending index* — spelled out as an
    # explicit ascending sort so exact ties are deterministic and invariant
    # under appending peers (the relabeling oracle in ``repro.verify`` runs
    # permuted-peer sweeps against this).  A ``reverse=True`` composite sort
    # would leave the index order implicit in sort stability.
    remainders = sorted(
        range(len(weights)), key=lambda i: (floors[i] - exact[i], -weights[i], i)
    )
    for i in remainders[:shortfall]:
        floors[i] += 1
    return floors


@dataclass
class AllocationPlan:
    """One interval's integer pad assignment."""

    send_total: int
    recv_total: int
    send_per_peer: dict[int, int] = field(default_factory=dict)
    recv_per_peer: dict[int, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.send_total + self.recv_total

    def validate(self, pool: int) -> None:
        if self.send_total + self.recv_total != pool:
            raise AssertionError("plan does not cover the pool")
        if sum(self.send_per_peer.values()) != self.send_total:
            raise AssertionError("send shares do not sum to the send total")
        if sum(self.recv_per_peer.values()) != self.recv_total:
            raise AssertionError("recv shares do not sum to the recv total")


class DynamicOtpAllocator:
    """Per-processor monitoring state and interval-based reallocation."""

    def __init__(
        self,
        peers: list[int],
        total_pool: int,
        alpha: float = 0.9,
        beta: float = 0.5,
        interval: int = 1000,
        min_per_stream: int = 1,
        min_samples: int = 32,
    ) -> None:
        if total_pool < 0:
            raise ValueError("pool size must be non-negative")
        if interval <= 0:
            raise ValueError("interval must be positive")
        if not peers:
            raise ValueError("allocator needs at least one peer")
        if min_per_stream < 0:
            raise ValueError("min_per_stream must be non-negative")
        self.peers = list(peers)
        self.total_pool = total_pool
        self.interval = interval
        # Every (direction, peer) stream keeps at least this many entries
        # so a misprediction costs partial hiding, not a full desync; only
        # the pool beyond the floors is redistributed.  Disabled when the
        # pool is too small to afford it (OTP 1x collapses to Private).
        if total_pool >= 2 * len(peers) * min_per_stream:
            self.min_per_stream = min_per_stream
        else:
            self.min_per_stream = 0
        # An interval must observe at least this many requests before its
        # ratios are folded into the EWMAs: sparse intervals carry noise,
        # not signal, and repartitioning on noise discards warmed pads.
        self.min_samples = min_samples
        # Initial state mirrors Private: even split across directions/peers.
        self.send_weight = Ewma(alpha, initial=0.5)
        share = 1.0 / len(peers)
        self.send_peer_weight = {p: Ewma(beta, initial=share) for p in peers}
        self.recv_peer_weight = {p: Ewma(beta, initial=share) for p in peers}
        # Current-interval counters (the monitoring phase).
        self._send_counts = {p: 0 for p in peers}
        self._recv_counts = {p: 0 for p in peers}
        self.interval_start = 0
        self.adjustments = 0
        #: fully idle intervals skipped by :meth:`maybe_adjust`'s single
        #: fold (surfaced as the ``alloc.idle_intervals`` metric)
        self.idle_intervals = 0

    # ------------------------------------------------------------------
    # Monitoring phase
    # ------------------------------------------------------------------
    def record_send(self, peer: int) -> None:
        self._send_counts[peer] += 1

    def record_recv(self, peer: int) -> None:
        self._recv_counts[peer] += 1

    @property
    def interval_send_total(self) -> int:
        return sum(self._send_counts.values())

    @property
    def interval_recv_total(self) -> int:
        return sum(self._recv_counts.values())

    # ------------------------------------------------------------------
    # Adjustment phase
    # ------------------------------------------------------------------
    def maybe_adjust(self, now: int) -> AllocationPlan | None:
        """Run the adjustment phase if at least one interval has elapsed.

        When the sim skipped idle cycles and *several* intervals elapsed at
        once, the pending counters are folded exactly **once** — this is
        deliberate, not a shortcut.  Monitoring is tick-driven: every
        ``record_send``/``record_recv`` is preceded by a tick at the same
        cycle, so any counts pending at a boundary crossing were all
        observed inside the first elapsed interval; every later elapsed
        interval saw zero traffic, and zero-traffic intervals leave the
        EWMAs untouched by design (module docstring) — iterating the decay
        per empty interval would reproduce byte-identical weights at N×
        the cost.  The fold therefore runs one :meth:`adjust`, tallies the
        ``elapsed - 1`` skipped intervals in :attr:`idle_intervals` (the
        ``alloc.idle_intervals`` metric), and jumps the interval origin to
        the boundary containing ``now``.  Regression-tested with a
        >2-interval gap in ``tests/test_core_contribution.py``.
        """
        if now < self.interval_start + self.interval:
            return None
        elapsed = (now - self.interval_start) // self.interval
        plan = self.adjust()
        self.idle_intervals += elapsed - 1
        self.interval_start += elapsed * self.interval
        return plan

    def adjust(self) -> AllocationPlan:
        """Formulas 1–4 over the just-finished interval's counters."""
        sreq = self.interval_send_total
        rreq = self.interval_recv_total

        if sreq + rreq >= self.min_samples:
            self.send_weight.update(sreq / (sreq + rreq))  # Formula 1
        if sreq >= self.min_samples:
            for peer, count in self._send_counts.items():
                self.send_peer_weight[peer].update(count / sreq)  # Formula 3
        if rreq >= self.min_samples:
            for peer, count in self._recv_counts.items():
                self.recv_peer_weight[peer].update(count / rreq)

        floor = self.min_per_stream * len(self.peers)  # per direction
        send_extra, recv_extra = largest_remainder(
            self.total_pool - 2 * floor,
            [self.send_weight.value, 1.0 - self.send_weight.value],
        )  # Formula 2, integerized above the floors
        send_total = floor + send_extra
        recv_total = floor + recv_extra
        send_shares = [
            self.min_per_stream + s
            for s in largest_remainder(
                send_extra, [self.send_peer_weight[p].value for p in self.peers]
            )
        ]  # Formula 4
        recv_shares = [
            self.min_per_stream + s
            for s in largest_remainder(
                recv_extra, [self.recv_peer_weight[p].value for p in self.peers]
            )
        ]

        plan = AllocationPlan(
            send_total=send_total,
            recv_total=recv_total,
            send_per_peer=dict(zip(self.peers, send_shares)),
            recv_per_peer=dict(zip(self.peers, recv_shares)),
        )
        plan.validate(self.total_pool)
        for counts in (self._send_counts, self._recv_counts):
            for peer in counts:
                counts[peer] = 0
        self.adjustments += 1
        return plan


__all__ = ["DynamicOtpAllocator", "AllocationPlan", "largest_remainder"]
