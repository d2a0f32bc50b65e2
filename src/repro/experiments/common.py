"""Shared infrastructure for the experiment harnesses.

:class:`ExperimentRunner` runs (workload × configuration) simulations on
top of :mod:`repro.runner`: cells are deduplicated, served from the
persistent result cache when available, and fanned out over worker
processes when ``jobs > 1``.  An in-memory memo preserves object identity
within a runner (a sweep that reuses the unsecure baseline gets the *same*
report object back).  :meth:`ExperimentRunner.sweep` is the one path for
a (workload × configuration) grid: it returns a :class:`Grid`, whose
averages and table every figure reads.  Formatting helpers render the
paper-style text tables.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from math import exp, fsum, log

from repro.configs import SystemConfig, scheme_config
from repro.runner import SweepJob, SweepRunner, default_cache
from repro.system import SimulationReport
from repro.workloads import WorkloadSpec, all_workloads


def geometric_mean(values: list[float]) -> float:
    """The paper reports averages of normalized times; geomean is the
    appropriate aggregate for ratios.

    Computed in log space — a running float product under/overflows for
    long ratio lists (17 workloads × 6 configs × 3 seeds is already 300+
    factors), while a compensated sum of logs is stable at any length.
    """
    if not values:
        raise ValueError("geometric mean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return exp(fsum(log(v) for v in values) / len(values))


@dataclass
class WorkloadResult:
    """One workload's reports across the swept configurations."""

    spec: WorkloadSpec
    baseline: SimulationReport
    by_config: dict[Hashable, SimulationReport]

    def slowdown(self, key: Hashable) -> float:
        return self.by_config[key].slowdown_vs(self.baseline)

    def traffic_ratio(self, key: Hashable) -> float:
        return self.by_config[key].traffic_ratio_vs(self.baseline)

    def meta_share(self, key: Hashable) -> float:
        """Security metadata's share of ``key``'s wire bytes."""
        report = self.by_config[key]
        return report.meta_traffic_bytes / report.traffic_bytes if report.traffic_bytes else 0.0


@dataclass
class Grid:
    """Every workload under every keyed configuration.

    ``rows`` keep the runner's workload order and ``keys`` the order of the
    configuration dict.  A key is any hashable: an OTP multiplier, a
    scheme name, or a ``(scheme, latency)`` pair.  Every average is a
    geometric mean over the workloads, each normalized to the same
    workload's unsecure run.
    """

    n_gpus: int
    keys: tuple
    rows: list[WorkloadResult]

    def average(self, key: Hashable) -> float:
        """Geometric-mean slowdown of ``key``."""
        return geometric_mean([row.slowdown(key) for row in self.rows])

    def average_traffic(self, key: Hashable) -> float:
        return geometric_mean([row.traffic_ratio(key) for row in self.rows])

    def improvement_over(self, ours: Hashable, prior: Hashable) -> float:
        """Average speedup of ``ours`` relative to ``prior`` (the paper's
        'performance improvement' metric)."""
        return self.average(prior) / self.average(ours) - 1.0

    def axis(self, position: int) -> list:
        """The distinct values at ``position`` of tuple keys, in key order."""
        return list(dict.fromkeys(key[position] for key in self.keys))

    def table(self, title: str, columns: list[str]) -> str:
        """Slowdowns: one row per workload and an average row, one column
        per key."""
        rows = [[row.spec.abbr, *[fmt(row.slowdown(k)) for k in self.keys]] for row in self.rows]
        rows.append(["average", *[fmt(self.average(k)) for k in self.keys]])
        return format_table(title, columns, rows)


class ExperimentRunner:
    """Runs and caches simulations for experiment sweeps.

    ``jobs`` worker processes execute independent cells concurrently
    (default: the ``REPRO_JOBS`` environment variable, else serial).  The
    persistent cache under ``cache_dir`` (default ``results/.cache``; see
    :func:`repro.runner.default_cache`) survives across processes, so a
    rerun of any figure only simulates cells it has never seen; pass
    ``use_cache=False`` — or set ``REPRO_NO_CACHE`` — to disable it.
    """

    def __init__(
        self,
        n_gpus: int = 4,
        seed: int = 1,
        scale: float = 1.0,
        workloads: list[WorkloadSpec] | None = None,
        jobs: int | None = None,
        cache_dir: str | None = None,
        use_cache: bool | None = None,
    ) -> None:
        self.n_gpus = n_gpus
        self.seed = seed
        self.scale = scale
        self.workloads = workloads if workloads is not None else all_workloads()
        self.sweeper = SweepRunner(jobs=jobs, cache=default_cache(cache_dir, use_cache))
        self._cache: dict[tuple, SimulationReport] = {}

    # ------------------------------------------------------------------
    # Simulation with memoization
    # ------------------------------------------------------------------
    def _job(self, spec: WorkloadSpec, config: SystemConfig) -> SweepJob:
        return SweepJob(spec=spec, config=config, seed=self.seed, scale=self.scale)

    def _memo_key(self, spec: WorkloadSpec, config: SystemConfig) -> tuple:
        # SystemConfig is a tree of frozen dataclasses, so the whole
        # configuration is hashable — any swept field invalidates the memo
        return (spec.name, self.seed, self.scale, config)

    def run(self, spec: WorkloadSpec, config: SystemConfig) -> SimulationReport:
        return self.run_many([(spec, config)])[0]

    def run_many(
        self, cells: list[tuple[WorkloadSpec, SystemConfig]]
    ) -> list[SimulationReport]:
        """Run a batch of cells; memo misses go to the sweeper *together*,
        so they share one process-pool fan-out and one cache pass."""
        missing = [
            (spec, config)
            for spec, config in cells
            if self._memo_key(spec, config) not in self._cache
        ]
        if missing:
            reports = self.sweeper.run_jobs([self._job(s, c) for s, c in missing])
            for (spec, config), report in zip(missing, reports):
                # setdefault keeps the first object if a duplicate cell
                # appeared twice in one batch — identity stays stable
                self._cache.setdefault(self._memo_key(spec, config), report)
        return [self._cache[self._memo_key(spec, config)] for spec, config in cells]

    def sweep(
        self,
        configs: dict[Hashable, SystemConfig],
        workloads: list[WorkloadSpec] | None = None,
    ) -> Grid:
        """Run every workload (default: the runner's) under the unsecure
        baseline and every keyed configuration.

        The whole grid is submitted as one batch, so with ``jobs > 1``
        independent cells run concurrently.
        """
        specs = self.workloads if workloads is None else workloads
        unsecure = scheme_config("unsecure", n_gpus=self.n_gpus)
        reports = iter(
            self.run_many(
                [(spec, config) for spec in specs for config in (unsecure, *configs.values())]
            )
        )
        rows = [
            WorkloadResult(spec, next(reports), {key: next(reports) for key in configs})
            for spec in specs
        ]
        return Grid(self.n_gpus, tuple(configs), rows)


# ---------------------------------------------------------------------------
# Text-table rendering
# ---------------------------------------------------------------------------
def format_table(
    title: str,
    columns: list[str],
    rows: list[list[str]],
) -> str:
    """Render an aligned monospace table with a title rule."""
    widths = [len(c) for c in columns]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title)]
    header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(columns))
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def fmt(value: float, digits: int = 3) -> str:
    return f"{value:.{digits}f}"


__all__ = [
    "ExperimentRunner",
    "Grid",
    "WorkloadResult",
    "geometric_mean",
    "format_table",
    "fmt",
]
