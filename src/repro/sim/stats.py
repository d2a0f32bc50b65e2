"""Statistics primitives used by the measurement harness.

The paper reports four kinds of quantities and each has a matching
primitive here:

* scalar event counts (requests sent, bytes transferred) — :class:`Counter`
* distributions (time for 16 blocks to accumulate, Figs 15/16) —
  :class:`Histogram` with explicit bin edges
* per-interval time series (send/receive ratio over execution, Figs 13/14) —
  :class:`IntervalSeries`
* hit/partial/miss style decompositions (Figs 10/22) — :class:`RatioStat`

Components hold these primitives directly; the run's
:class:`~repro.obs.metrics.MetricsRegistry` is the one namespace that
collects them for reports.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int | float = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A named last-write-wins measurement (a derived rate, a final level)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0) -> None:
        self.name = name
        self.value = value

    def set(self, value: int | float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Histogram over explicit bin edges.

    ``edges = [a, b, c]`` creates bins ``[-inf, a) [a, b) [b, c) [c, inf)``.
    The paper's burstiness figures use edges ``[40, 160, 640, 2560]``.
    """

    def __init__(self, name: str, edges: list[int | float]) -> None:
        if sorted(edges) != list(edges):
            raise ValueError("histogram edges must be sorted")
        self.name = name
        self.edges = list(edges)
        self.counts = [0] * (len(edges) + 1)
        self.total = 0
        self._sum = 0.0

    def record(self, value: int | float) -> None:
        self.counts[bisect_right(self.edges, value)] += 1
        self.total += 1
        self._sum += value

    @property
    def mean(self) -> float:
        return self._sum / self.total if self.total else 0.0

    def fractions(self) -> list[float]:
        """Per-bin fractions of all recorded samples (sums to 1 when any)."""
        if not self.total:
            return [0.0] * len(self.counts)
        return [c / self.total for c in self.counts]


class IntervalSeries:
    """Values accumulated into fixed-width time intervals.

    Used for the communication-pattern timelines (Figs 13/14).  The
    transport fills ``_channels`` in place, one bucket add per message
    (``_TransportBase._note_send``/``_note_arrival``); multiple named
    channels share the interval grid, so per-destination decompositions
    line up.
    """

    def __init__(self, name: str, interval: int) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.name = name
        self.interval = interval
        self._channels: dict[str, dict[int, float]] = {}

    def channels(self) -> list[str]:
        return sorted(self._channels)

    def series(self, channel: str, n_buckets: int | None = None) -> list[float]:
        """Dense series for one channel, zero-filled to ``n_buckets``."""
        chan = self._channels.get(channel, {})
        if n_buckets is None:
            n_buckets = (max(chan) + 1) if chan else 0
        return [chan.get(i, 0.0) for i in range(n_buckets)]

    def n_buckets(self) -> int:
        highest = -1
        for chan in self._channels.values():
            if chan:
                highest = max(highest, max(chan))
        return highest + 1


@dataclass
class RatioStat:
    """Counts of categorical outcomes, reported as fractions.

    The OTP hit/partial/miss decomposition uses exactly this: the scheme's
    ``OtpScheme._record`` adds to ``counts`` in place, one bucket per pad
    acquisition.
    """

    name: str
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def fractions(self) -> dict[str, float]:
        total = self.total
        if not total:
            return {k: 0.0 for k in self.counts}
        return {k: v / total for k, v in self.counts.items()}

    def merge(self, other: "RatioStat") -> None:
        for key, val in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + val


@dataclass
class FaultStats:
    """Ledger of injected link faults and the recovery work they caused.

    Injection counters record what the link faults of
    :class:`~repro.secure.adversary.LinkPerturbation` did to the wire;
    recovery counters record what the secure channel spent to survive it
    (the quantities ``experiments.fig_fault_sweep`` surfaces per scheme).
    The two ``*_deliveries``/``lost_messages`` counters only ever move on
    the *unsecure* fabric, which has no detection: they are the silent-
    data-corruption cost the paper's protocol exists to eliminate.
    """

    # --- injected by the link ------------------------------------------
    drops_injected: int = 0
    corruptions_injected: int = 0
    duplicates_injected: int = 0
    delays_injected: int = 0
    # --- detected / absorbed by the secure channel ---------------------
    corruptions_detected: int = 0  # MsgMAC rejections before delivery
    duplicates_discarded: int = 0  # wire replays rejected by counter check
    spurious_retransmits: int = 0  # late originals raced their retransmit
    # --- recovery work -------------------------------------------------
    nacks_sent: int = 0
    timeouts_fired: int = 0
    retransmits: int = 0
    backoff_cycles: int = 0  # cycles spent waiting on expired RTO timers
    wasted_otps: int = 0  # pads burned on copies that never delivered
    link_failures: int = 0  # retry budgets exhausted (LinkFailureError)
    # --- silent damage on the unsecure fabric --------------------------
    lost_messages: int = 0  # payloads lost in flight, nobody noticed
    corrupted_deliveries: int = 0  # garbage blocks consumed by a device

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)

    def merge(self, other: "FaultStats") -> None:
        for name, value in other.__dict__.items():
            setattr(self, name, getattr(self, name) + value)

    @property
    def undetected(self) -> int:
        """Faults that reached a device without anyone noticing."""
        return self.lost_messages + self.corrupted_deliveries


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "IntervalSeries",
    "RatioStat",
    "FaultStats",
]
