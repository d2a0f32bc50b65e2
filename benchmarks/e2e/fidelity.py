"""Fig 21 fidelity: the reproduction's average overheads against the paper's.

``fidelity_err_pp`` is the mean absolute difference, in percentage points,
between the five Fig 21 average overheads the grid produces and the ones
the paper reports.  Reports are deterministic, so a change that only makes
the simulator faster leaves it identical.
"""

from __future__ import annotations

from statistics import fmean
from typing import Sequence

from repro.experiments.common import geometric_mean

#: Fig 21 average overheads (%) over the unsecure system, as published.
PAPER_OVERHEAD_PCT = {
    "private_4x": 19.5,
    "private_16x": 14.0,
    "cached_4x": 16.3,
    "dynamic_4x": 14.7,
    "batching_4x": 7.9,
}


def average_slowdowns(
    labels: Sequence[str], jobs: Sequence, reports: Sequence
) -> dict[str, float]:
    """Geometric-mean slowdown of each Fig 21 scheme over the grid's workloads,
    each normalised to the same workload's ``unsecure`` cell."""
    baseline = {
        job.spec.name: report
        for label, job, report in zip(labels, jobs, reports)
        if label == "unsecure"
    }
    slowdowns: dict[str, list[float]] = {key: [] for key in PAPER_OVERHEAD_PCT}
    for label, job, report in zip(labels, jobs, reports):
        if label in slowdowns:
            slowdowns[label].append(report.slowdown_vs(baseline[job.spec.name]))
    return {key: geometric_mean(values) for key, values in slowdowns.items()}


def fidelity_err_pp(averages: dict[str, float]) -> float:
    """Mean |ours - paper| over the five schemes, in percentage points."""
    return fmean(
        abs((averages[key] - 1.0) * 100.0 - paper)
        for key, paper in PAPER_OVERHEAD_PCT.items()
    )


__all__ = ["PAPER_OVERHEAD_PCT", "average_slowdowns", "fidelity_err_pp"]
