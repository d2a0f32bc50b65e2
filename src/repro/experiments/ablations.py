"""Ablation studies on the proposal's design choices.

Beyond the paper's own sweeps (Figs 8/26), these isolate each knob the
design fixes by fiat so its contribution is measurable:

* ``batch_size_sweep``   — n ∈ {4..64}; the paper picks 16 from Fig. 15.
* ``interval_sweep``     — the monitoring period T (Table III: 1000).
* ``ideal_bound``        — the Ideal (unbounded-pads) scheme, splitting
  residual overhead into "pad misses" vs "metadata bandwidth": the gap
  Ideal→unsecure is what only batching can recover, the gap scheme→Ideal
  is what buffer management can.
* ``migration_threshold_sweep`` — the access-counter threshold trading
  direct-access traffic against bulk page moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.configs import LinkConfig, MetadataConfig, MigrationConfig, default_config
from repro.experiments.common import ExperimentRunner, Grid, fmt, format_table, geometric_mean


@dataclass
class SweepResult:
    """Average slowdown per swept value."""

    parameter: str
    n_gpus: int
    averages: dict = field(default_factory=dict)  # value -> avg slowdown

    def best(self):
        return min(self.averages, key=self.averages.get)


def _sweep(runner: ExperimentRunner, parameter: str, configs: dict) -> SweepResult:
    """One grid over every swept value, reduced to its averages."""
    grid = runner.sweep(configs)
    return SweepResult(parameter, runner.n_gpus, {v: grid.average(v) for v in configs})


# ---------------------------------------------------------------------------
# Batching knobs
# ---------------------------------------------------------------------------
def batch_size_sweep(
    runner: ExperimentRunner | None = None,
    sizes: tuple[int, ...] = (4, 8, 16, 32, 64),
) -> SweepResult:
    runner = runner or ExperimentRunner()
    return _sweep(
        runner,
        "batch_size",
        {
            n: default_config(runner.n_gpus, scheme="dynamic", batching=True, batch_size=n)
            for n in sizes
        },
    )


# ---------------------------------------------------------------------------
# Dynamic-allocator knobs
# ---------------------------------------------------------------------------
def interval_sweep(
    runner: ExperimentRunner | None = None,
    intervals: tuple[int, ...] = (250, 500, 1000, 2000, 4000),
) -> SweepResult:
    runner = runner or ExperimentRunner()
    return _sweep(
        runner,
        "interval_T",
        {t: default_config(runner.n_gpus, scheme="dynamic", interval=t) for t in intervals},
    )


# ---------------------------------------------------------------------------
# Bounds decomposition
# ---------------------------------------------------------------------------
def ideal_bound(runner: ExperimentRunner | None = None) -> Grid:
    runner = runner or ExperimentRunner()
    return runner.sweep(
        {
            "dynamic": default_config(runner.n_gpus, scheme="dynamic"),
            "ideal": default_config(runner.n_gpus, scheme="ideal"),
            "ideal_batched": default_config(runner.n_gpus, scheme="ideal", batching=True),
        }
    )


# ---------------------------------------------------------------------------
# Migration policy
# ---------------------------------------------------------------------------
def migration_threshold_sweep(
    runner: ExperimentRunner | None = None,
    thresholds: tuple[int, ...] = (4, 8, 16, 32),
) -> SweepResult:
    runner = runner or ExperimentRunner()
    ours = default_config(runner.n_gpus, scheme="dynamic", batching=True)
    return _sweep(
        runner,
        "migration_threshold",
        {t: replace(ours, migration=MigrationConfig(threshold=t)) for t in thresholds},
    )


# ---------------------------------------------------------------------------
# Fabric organization (beyond the paper: ring / switch alternatives)
# ---------------------------------------------------------------------------
def fabric_sweep(
    runner: ExperimentRunner | None = None,
    fabrics: tuple[str, ...] = ("p2p", "switch", "ring"),
) -> SweepResult:
    """Security overhead of Ours under different GPU-fabric organizations.

    Each fabric is normalized to the *unsecure system on the same fabric*,
    so the sweep isolates how fabric contention amplifies the security
    costs (metadata bytes hurt most where links are shared).
    """
    runner = runner or ExperimentRunner()
    configs = {}
    for fabric in fabrics:
        link = LinkConfig(fabric=fabric)
        configs[fabric] = replace(
            default_config(runner.n_gpus, scheme="dynamic", batching=True), link=link
        )
        configs[fabric, "unsecure"] = replace(default_config(runner.n_gpus), link=link)
    grid = runner.sweep(configs)
    averages = {
        f: geometric_mean(
            [row.by_config[f].slowdown_vs(row.by_config[f, "unsecure"]) for row in grid.rows]
        )
        for f in fabrics
    }
    return SweepResult("fabric", runner.n_gpus, averages)


# ---------------------------------------------------------------------------
# Protocol extensions beyond the paper
# ---------------------------------------------------------------------------
def extensions_study(runner: ExperimentRunner | None = None) -> Grid:
    """Cost/benefit of two optional protocol extensions.

    * ``compressed_ctr``   — 2 B delta counters instead of 8 B MsgCTRs
      (Common-Counters-style), stacking with batching;
    * ``protect_requests`` — control messages also encrypted+authenticated
      (the oblivious-communication direction of [34]), priced on top of
      the paper's proposal.
    """
    runner = runner or ExperimentRunner()
    base = default_config(runner.n_gpus, scheme="dynamic", batching=True)
    compressed = replace(
        base,
        security=replace(
            base.security, metadata=MetadataConfig(compressed_counters=True)
        ),
    )
    protected = replace(base, security=replace(base.security, protect_requests=True))
    return runner.sweep(
        {
            "ours": base,
            "ours+compressed_ctr": compressed,
            "ours+protect_requests": protected,
        }
    )


def format_extensions(grid: Grid) -> str:
    rows = [
        [key, fmt(grid.average(key)), fmt(grid.average_traffic(key))]
        for key in grid.keys
    ]
    return format_table(
        f"Extensions: protocol variants beyond the paper ({grid.n_gpus} GPUs)",
        ["variant", "avg slowdown", "avg traffic"],
        rows,
    )


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------
def format_sweep(result: SweepResult) -> str:
    rows = [[str(value), fmt(avg)] for value, avg in result.averages.items()]
    return format_table(
        f"Ablation: {result.parameter} ({result.n_gpus} GPUs, avg slowdown)",
        [result.parameter, "avg slowdown"],
        rows,
    )


def format_ideal_bound(grid: Grid) -> str:
    return grid.table(
        f"Ablation: overhead decomposition ({grid.n_gpus} GPUs) — "
        "Ideal isolates the metadata-bandwidth floor",
        ["workload", "Dynamic", "Ideal pads", "Ideal+batch"],
    )


__all__ = [
    "SweepResult",
    "extensions_study",
    "format_extensions",
    "batch_size_sweep",
    "interval_sweep",
    "ideal_bound",
    "fabric_sweep",
    "migration_threshold_sweep",
    "format_sweep",
    "format_ideal_bound",
]
