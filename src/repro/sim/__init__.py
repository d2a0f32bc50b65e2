"""Discrete-event simulation substrate.

This package provides the cycle-timestamped event engine that every other
subsystem (interconnect, GPUs, secure channels) schedules work on, plus the
statistics primitives used to collect the paper's measurements.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.stats import Counter, Histogram, IntervalSeries, RatioStat

__all__ = [
    "Event",
    "Simulator",
    "Counter",
    "Histogram",
    "IntervalSeries",
    "RatioStat",
]
