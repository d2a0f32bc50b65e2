"""Process-wide metrics facade over the :mod:`repro.sim.stats` primitives.

The paper's claims are measurement claims — OTP hit ratios, metadata bytes
per link, burst-accumulation distributions.  Components hold their
counters as plain primitives, and :class:`MetricsRegistry` is the one
shared namespace those primitives register into: every metric has a dotted
name whose first segment is a known namespace (``otp.send``,
``meta.bytes``, ``fault.retransmit``, …), so exports can be validated
against drift and figure scripts read one flat table instead of reaching
into component internals.

The registry stores the *same* primitive objects the components update —
:class:`~repro.sim.stats.Counter`, :class:`~repro.sim.stats.Gauge`,
:class:`~repro.sim.stats.Histogram`, :class:`~repro.sim.stats.RatioStat` —
and :meth:`MetricsRegistry.snapshot` renders them to a deterministic
JSON-safe dict (sorted names, typed payloads) that round-trips losslessly
through the result cache and the process-pool boundary.
"""

from __future__ import annotations

import re

from repro.sim.stats import Counter, Gauge, Histogram, RatioStat

#: Every legal first segment of a metric name.  ``repro-sim metrics check``
#: fails on anything else, which keeps the namespace from drifting as new
#: components grow counters.
KNOWN_NAMESPACES = frozenset(
    {
        "run",      # whole-run outcomes: cycles, events, remote requests
        "traffic",  # bytes on the fabric (total / base)
        "meta",     # security-metadata bytes
        "msg",      # message counts on the transport
        "ack",      # replay-protection ACK traffic
        "batch",    # metadata-batching activity
        "otp",      # pad hit/partial/miss decompositions
        "alloc",    # dynamic-allocator adjustment activity
        "burst",    # data-block burst-accumulation histograms
        "fault",    # injected faults and recovery events
        "adv",      # adversarial attacks, detections, and quarantines
        "engine",   # event-engine push/pop/cancel profile
    }
)

#: Dotted lowercase names: ``namespace.part`` or deeper (``otp.send.hit``).
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")

#: Snapshot payload types, keyed by primitive class.
METRIC_TYPES = ("counter", "gauge", "histogram", "ratio")


def validate_name(name: str) -> None:
    """Raise ``ValueError`` unless ``name`` is a well-formed known metric name."""
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} must be dotted lowercase (namespace.metric)"
        )
    namespace = name.split(".", 1)[0]
    if namespace not in KNOWN_NAMESPACES:
        raise ValueError(
            f"metric {name!r} uses unknown namespace {namespace!r}; "
            f"known: {', '.join(sorted(KNOWN_NAMESPACES))}"
        )


def encode_metric(stat: object) -> dict:
    """Render one primitive to its typed JSON-safe snapshot payload."""
    if isinstance(stat, Counter):
        return {"type": "counter", "value": stat.value}
    if isinstance(stat, Gauge):
        return {"type": "gauge", "value": stat.value}
    if isinstance(stat, Histogram):
        return {
            "type": "histogram",
            "edges": list(stat.edges),
            "counts": list(stat.counts),
            "total": stat.total,
            "sum": stat._sum,
        }
    if isinstance(stat, RatioStat):
        return {"type": "ratio", "counts": {k: stat.counts[k] for k in sorted(stat.counts)}}
    raise TypeError(f"unsupported metric primitive {type(stat).__name__}")


class MetricsRegistry:
    """A flat, validated namespace of metric primitives.

    ``counter``/``gauge``/``ratio`` are get-or-create: the first call under
    a name builds the primitive, later calls return the same object, and a
    call under a name already holding a *different* primitive type raises.
    :meth:`register` adopts an existing component-owned primitive (the
    transport's burst histograms) so one object serves both the component
    and the export.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Get-or-create accessors
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def ratio(self, name: str) -> RatioStat:
        return self._get_or_create(name, RatioStat, lambda: RatioStat(name))

    def _get_or_create(self, name: str, cls: type, factory):
        stat = self._metrics.get(name)
        if stat is None:
            validate_name(name)
            stat = factory()
            self._metrics[name] = stat
        elif not isinstance(stat, cls):
            raise TypeError(
                f"metric {name!r} is a {type(stat).__name__}, not a {cls.__name__}"
            )
        return stat

    # ------------------------------------------------------------------
    # Adoption
    # ------------------------------------------------------------------
    def register(self, name: str, stat: object) -> None:
        """Adopt an existing primitive under ``name``.

        Re-registering the same object is a no-op; a different object under
        an occupied name raises (two components must not silently share a
        metric they both believe they own).
        """
        existing = self._metrics.get(name)
        if existing is stat:
            return
        if existing is not None:
            raise ValueError(f"metric {name!r} is already registered")
        validate_name(name)
        encode_metric(stat)  # raises TypeError on unsupported primitives
        self._metrics[name] = stat

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict]:
        """Deterministic JSON-safe rendering of every metric, sorted by name."""
        return {name: encode_metric(self._metrics[name]) for name in sorted(self._metrics)}


__all__ = [
    "KNOWN_NAMESPACES",
    "METRIC_TYPES",
    "MetricsRegistry",
    "encode_metric",
    "validate_name",
]
