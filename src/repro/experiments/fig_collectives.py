"""Collective-communication sweep: schemes × NCCL-style collectives.

Production multi-GPU traffic is dominated by collectives (DDP training,
sharded inference), not by Table IV kernels; this harness prices the
secure-channel schemes on exactly that traffic.  For every collective in
the ``collective`` registry class (ring/tree all-reduce, all-gather,
reduce-scatter, broadcast, 2D halo exchange) it reports

* **slowdown** vs. the unsecure baseline per scheme, and
* **traffic amplification** plus the security-metadata share of the wire
  bytes — the quantity batching exists to compress.

The headline the sweep demonstrates: the paper's full proposal
(Dynamic + batching) prices every collective at or below the conventional
Private scheme at equal OTP storage, with the biggest wins on the
bulk-synchronous chunked collectives whose 16-block bursts batching
converts into one MsgMAC + one ACK each.

Not a paper figure — collectives are this reproduction's production-traffic
extension (see ``docs/WORKLOADS.md``).  Run from the CLI as
``repro-sim experiment collectives``; :func:`smoke` is the CI entry that
enforces the Dynamic+Batch ≤ Private contract at small scale.
"""

from __future__ import annotations

from repro.configs import scheme_config
from repro.experiments.ascii_chart import hbar_chart
from repro.experiments.common import ExperimentRunner, Grid, fmt, format_table
from repro.workloads import all_collectives

#: Schemes compared, conventional → the paper's full proposal.
SCHEMES = ("private", "cached", "dynamic", "batching")


def run(
    runner: ExperimentRunner | None = None,
    schemes: tuple[str, ...] = SCHEMES,
) -> Grid:
    """Sweep every collective under every scheme (plus the baseline).

    The runner supplies the execution layer (seed, scale, jobs, cache);
    the workload set is always the full ``collective`` registry class.
    """
    runner = runner or ExperimentRunner()
    return runner.sweep(
        {s: scheme_config(s, n_gpus=runner.n_gpus) for s in schemes},
        workloads=all_collectives(),
    )


def format_result(grid: Grid) -> str:
    columns = ["scheme", *[row.spec.name for row in grid.rows], "geomean"]
    slowdown_rows = [
        [
            scheme,
            *[fmt(row.slowdown(scheme)) for row in grid.rows],
            fmt(grid.average(scheme)),
        ]
        for scheme in grid.keys
    ]
    slowdown_table = format_table(
        f"Collectives: slowdown vs. unsecure ({grid.n_gpus} GPUs)",
        columns,
        slowdown_rows,
    )

    traffic_rows = [
        [
            scheme,
            *[
                f"{fmt(row.traffic_ratio(scheme), 2)} ({row.meta_share(scheme):.0%})"
                for row in grid.rows
            ],
            fmt(grid.average_traffic(scheme), 2),
        ]
        for scheme in grid.keys
    ]
    traffic_table = format_table(
        "Traffic amplification vs. unsecure (metadata share of wire bytes)",
        columns,
        traffic_rows,
    )

    chart = hbar_chart(
        "Geomean slowdown across collectives (| marks the unsecure baseline)",
        [(scheme, grid.average(scheme)) for scheme in grid.keys],
        baseline=1.0,
    )
    return "\n\n".join([slowdown_table, traffic_table, chart])


def assert_batching_wins(grid: Grid) -> int:
    """Enforce the collectives contract: Dynamic+Batch ≤ Private everywhere.

    At equal OTP storage the full proposal must not price any collective
    above the conventional per-message protocol.  Returns the number of
    collectives checked; raises AssertionError naming the violator.
    """
    for required in ("private", "batching"):
        if required not in grid.keys:
            raise AssertionError(f"contract needs scheme {required!r} in the sweep")
    for row in grid.rows:
        private = row.slowdown("private")
        ours = row.slowdown("batching")
        if ours > private + 1e-9:
            raise AssertionError(
                f"{row.spec.name}: Dynamic+Batch slowdown {ours:.3f} exceeds Private {private:.3f}"
            )
    return len(grid.rows)


def smoke(
    scale: float = 0.25,
    jobs: int | None = None,
    use_cache: bool | None = None,
) -> Grid:
    """CI-scale collectives sweep enforcing Dynamic+Batch ≤ Private.

    Scale floors at 0.25: below that the traces span too few of the
    dynamic allocator's T=1000-cycle intervals for the EWMA statistics to
    settle (same floor the benchmarks apply, see EXPERIMENTS.md).
    """
    runner = ExperimentRunner(scale=max(scale, 0.25), jobs=jobs, use_cache=use_cache)
    grid = run(runner, schemes=("private", "batching"))
    checked = assert_batching_wins(grid)
    print(format_result(grid))
    print(f"\nsmoke: {checked} collectives checked, Dynamic+Batch <= Private on all")
    return grid


__all__ = [
    "SCHEMES",
    "run",
    "format_result",
    "assert_batching_wins",
    "smoke",
]
