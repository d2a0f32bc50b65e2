"""Figures 12 and 23: interconnect traffic ratios.

Fig. 12 measures how much extra traffic the security metadata adds under
Private (paper: +36.5 % on average).  Fig. 23 compares Private, Cached, and
Ours (Dynamic + Batching), where batching removes ~20 % of the secured
traffic (paper: −20.2 % vs Private, −20.0 % vs Cached).
"""

from __future__ import annotations

from repro.configs import scheme_config
from repro.experiments.common import ExperimentRunner, Grid, fmt, format_table


def run(
    runner: ExperimentRunner | None = None,
    schemes: tuple[str, ...] = ("private", "cached", "batching"),
) -> Grid:
    """Read the traffic ratios with :meth:`Grid.average_traffic`; the
    grid's ``average`` is the slowdown."""
    runner = runner or ExperimentRunner()
    return runner.sweep({s: scheme_config(s, n_gpus=runner.n_gpus) for s in schemes})


def format_result(grid: Grid) -> str:
    rows = [
        [row.spec.abbr, *[fmt(row.traffic_ratio(k)) for k in grid.keys]] for row in grid.rows
    ]
    rows.append(["average", *[fmt(grid.average_traffic(k)) for k in grid.keys]])
    return format_table(
        f"Figures 12/23: traffic vs unsecure ({grid.n_gpus} GPUs, OTP 4x)",
        ["workload", *grid.keys],
        rows,
    )


__all__ = ["run", "format_result"]
