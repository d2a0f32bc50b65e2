"""Run-scoped telemetry: one metrics registry plus profiling hooks.

A :class:`Telemetry` object travels with one simulation run —
:class:`~repro.system.MultiGpuSystem` creates one and threads it through
the transport so every layer records into the same namespace.  At
report time the system snapshots the registry onto
``SimulationReport.metrics``, which is what the result cache and the
process-pool boundary round-trip.

Two kinds of measurement live here and they are deliberately separated:

* **metrics** — deterministic quantities (counters, gauges, histograms,
  ratio stats, interval series).  These are a pure function of the job
  description, so serial, parallel, and cache-hit replays of the same cell
  export byte-identical metrics files.
* **profile** — wall-clock phase timings from :meth:`Telemetry.phase`
  (the report generator times each experiment section with it).
  Wall-clock is inherently non-deterministic, so it never enters the
  metrics snapshot or the cache; read it via :meth:`profile_snapshot`
  in the process that did the work.

The profiling hook is a context manager around a pair of
``perf_counter`` calls — overhead is tens of nanoseconds per phase entry,
negligible against the milliseconds-to-minutes phases it brackets (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

from repro.obs.metrics import MetricsRegistry
from repro.sim.stats import Counter, Gauge, Histogram, IntervalSeries, RatioStat


class Telemetry:
    """Metrics registry + wall-clock phase profile for one run."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        # phase name -> [entry count, cumulative seconds]
        self._phases: dict[str, list] = {}

    # ------------------------------------------------------------------
    # Metric accessors (delegate to the registry)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name)

    def histogram(self, name: str, edges: list[int | float]) -> Histogram:
        return self.metrics.histogram(name, edges)

    def series(self, name: str, interval: int) -> IntervalSeries:
        return self.metrics.series(name, interval)

    def ratio(self, name: str) -> RatioStat:
        return self.metrics.ratio(name)

    def register(self, name: str, stat: object) -> None:
        self.metrics.register(name, stat)

    # ------------------------------------------------------------------
    # Profiling hooks
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str):
        """Accumulate wall-clock time for ``name`` around the enclosed block."""
        start = perf_counter()
        try:
            yield self
        finally:
            entry = self._phases.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += perf_counter() - start

    def phase_seconds(self, name: str) -> float:
        """Cumulative wall-clock seconds recorded for ``name`` (0.0 if never)."""
        entry = self._phases.get(name)
        return entry[1] if entry else 0.0

    def profile_snapshot(self) -> dict:
        """Wall-clock phase table — NOT part of the deterministic metrics."""
        return {
            "phases": {
                name: {"calls": self._phases[name][0], "seconds": self._phases[name][1]}
                for name in sorted(self._phases)
            }
        }

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict]:
        """The deterministic metrics table (see :meth:`MetricsRegistry.snapshot`)."""
        return self.metrics.snapshot()


__all__ = ["Telemetry"]
