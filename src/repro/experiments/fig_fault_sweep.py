"""Fault-rate sweep: secure recovery vs. unsecure silent corruption.

Sweeps the link fault rate across schemes and surfaces the headline
robustness asymmetry: on an unreliable fabric the unsecure baseline simply
loses or consumes corrupted data (``lost_messages`` /
``corrupted_deliveries`` — nothing in the system can even tell), while the
secure schemes detect every corruption at the MsgMAC, recover every loss by
NACK/timeout-driven retransmission, and pay a measurable price for it
(retransmits, wasted OTPs, backoff cycles) that this experiment reports per
scheme.

The composite "fault rate" r splits into the four injected fault classes as
40 % drops, 40 % corruptions, 10 % wire duplicates, 10 % delay spikes —
drops and corruptions dominate because they are the classes that force
actual recovery work.

Not a paper figure: this is the reproduction's robustness harness (see
``docs/ROBUSTNESS.md``), also run at small scale as a CI smoke check via
:func:`smoke`.
"""

from __future__ import annotations

from repro.configs import SystemConfig, scheme_config
from repro.experiments.ascii_chart import hbar_chart
from repro.experiments.common import ExperimentRunner, Grid, fmt, format_table
from repro.sim.stats import FaultStats
from repro.workloads import get_workload

#: Composite fault rates swept by default (0.0 = the clean-channel anchor).
RATES = (0.0, 0.02, 0.05)

#: Schemes compared: the undefended baseline and one representative of each
#: secure protocol family (conventional, dynamic allocation, batching).
SCHEMES = ("unsecure", "private", "dynamic", "batching")


def fault_overrides(rate: float, seed: int = 0) -> dict[str, float | int]:
    """Split a composite fault rate into the per-class injector knobs."""
    return {
        "drop_rate": 0.4 * rate,
        "corrupt_rate": 0.4 * rate,
        "duplicate_rate": 0.1 * rate,
        "delay_rate": 0.1 * rate,
        "seed": seed,
    }


def fault_config(scheme: str, rate: float, n_gpus: int = 4) -> SystemConfig:
    """Scheme config at one swept fault rate (rate 0 = the pristine config,
    so its cells hash and simulate identically to a no-fault sweep)."""
    config = scheme_config(scheme, n_gpus=n_gpus)
    if rate > 0:
        config = config.with_fault(**fault_overrides(rate))
    return config


def run(
    runner: ExperimentRunner | None = None,
    rates: tuple[float, ...] = RATES,
    schemes: tuple[str, ...] = SCHEMES,
) -> Grid:
    """Every scheme at every fault rate, keyed ``(scheme, rate)``, each
    normalized to the fault-free unsecure run."""
    runner = runner or ExperimentRunner()
    return runner.sweep(
        {
            (scheme, rate): fault_config(scheme, rate, n_gpus=runner.n_gpus)
            for scheme in schemes
            for rate in rates
        }
    )


def fault_totals(grid: Grid, key: tuple[str, float]) -> FaultStats:
    """Fault and recovery counters of ``key``'s cells merged across workloads."""
    totals = FaultStats()
    for row in grid.rows:
        stats = row.by_config[key].fault_stats
        if stats is not None:
            totals.merge(stats)
    return totals


def assert_no_undetected(grid: Grid) -> int:
    """Fail loudly if any secure scheme let a fault through undetected.

    Returns the number of (scheme, rate) cells checked.  This is the
    robustness contract the CI smoke job enforces: a secure scheme must
    never deliver a corrupted block or silently lose a message, and every
    injected corruption must show up as a MsgMAC rejection.
    """
    checked = 0
    for scheme, rate in grid.keys:
        if scheme == "unsecure":
            continue
        stats = fault_totals(grid, (scheme, rate))
        if stats.lost_messages or stats.corrupted_deliveries:
            raise AssertionError(
                f"{scheme} @ rate {rate}: {stats.lost_messages} lost, "
                f"{stats.corrupted_deliveries} corrupted blocks reached a device"
            )
        if stats.corruptions_detected != stats.corruptions_injected:
            raise AssertionError(
                f"{scheme} @ rate {rate}: {stats.corruptions_injected} corruptions "
                f"injected but only {stats.corruptions_detected} detected"
            )
        checked += 1
    return checked


def format_result(grid: Grid) -> str:
    schemes, rates = grid.axis(0), grid.axis(1)
    rows = [
        [scheme, *[fmt(grid.average((scheme, rate))) for rate in rates]]
        for scheme in schemes
    ]
    table = format_table(
        f"Fault sweep: slowdown vs. fault-free unsecure ({grid.n_gpus} GPUs)",
        ["scheme", *[f"r={rate:g}" for rate in rates]],
        rows,
    )

    worst = max(rates)
    recovery_rows = []
    for scheme in schemes:
        stats = fault_totals(grid, (scheme, worst))
        recovery_rows.append(
            [
                scheme,
                str(stats.retransmits),
                str(stats.wasted_otps),
                str(stats.timeouts_fired),
                str(stats.nacks_sent),
                str(stats.undetected),
            ]
        )
    recovery = format_table(
        f"Recovery work and silent damage at r={worst:g}",
        ["scheme", "retransmits", "wasted OTPs", "timeouts", "NACKs", "undetected"],
        recovery_rows,
    )

    chart = hbar_chart(
        f"Slowdown at r={worst:g} (| marks the fault-free baseline)",
        [(scheme, grid.average((scheme, worst))) for scheme in schemes],
        baseline=1.0,
    )
    return "\n\n".join([table, recovery, chart])


#: Small high-traffic workload set for the CI smoke run: enough remote
#: data blocks to exercise every fault class without a long wall clock.
SMOKE_WORKLOADS = ("fir", "stencil2d", "matrixtranspose")


def smoke(
    scale: float = 0.05,
    rates: tuple[float, ...] = (0.0, 0.05),
    jobs: int | None = None,
    use_cache: bool | None = None,
) -> Grid:
    """CI-scale fault sweep that enforces the zero-undetected contract."""
    runner = ExperimentRunner(
        scale=scale,
        workloads=[get_workload(name) for name in SMOKE_WORKLOADS],
        jobs=jobs,
        use_cache=use_cache,
    )
    grid = run(runner, rates=rates)
    checked = assert_no_undetected(grid)
    injected = sum(
        stats.drops_injected + stats.corruptions_injected
        for stats in (fault_totals(grid, key) for key in grid.keys)
    )
    if not injected:
        raise AssertionError("fault smoke injected no faults — sweep too small?")
    print(format_result(grid))
    print(f"\nsmoke: {checked} secure cells checked, {injected} drops/corruptions injected, 0 undetected")
    return grid


__all__ = [
    "RATES",
    "SCHEMES",
    "SMOKE_WORKLOADS",
    "fault_overrides",
    "fault_config",
    "run",
    "fault_totals",
    "assert_no_undetected",
    "format_result",
    "smoke",
]
