"""The benchmark's workloads: (workload x scheme) grids and their checks.

Each grid is a list of :class:`~repro.runner.jobs.SweepJob` cells in input
order, submitted as one ``SweepRunner.run_jobs`` call.  All cells use 4
GPUs.  The seed is the workload seed and also seeds the fault and
adversary injectors of ``under-attack``.

Scales are the smallest that keep each grid's character (below 0.1 the
Table IV generators stop shrinking, so ``fig21`` costs the same at 0.05 as
at 0.1) while one grid fits several times into a benchmark run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Sequence

from repro.configs import scheme_config
from repro.experiments.fig21_main_result import build_configs
from repro.experiments.fig_adversary import adversary_overrides
from repro.runner import SweepJob
from repro.runner.serialize import report_to_dict
from repro.verify.analytic import check_report
from repro.verify.harness import ALL_SCHEMES
from repro.workloads import all_workloads, get_workload

N_GPUS = 4

#: name -> (default scale, worker processes); why each exists is in
#: BENCHMARK.json and README.md
WORKLOADS = {
    "fig21": (0.1, 1),
    "fig21-par2": (0.1, 2),
    "high-rpki": (0.5, 1),
    "under-attack": (0.1, 1),
}

HIGH_RPKI_WORKLOADS = ("matrixtranspose", "relu", "syr2k")
ATTACK_WORKLOADS = ("matrixtranspose", "relu", "pagerank", "spmv", "fir")
ATTACK_SCHEMES = ("private", "dynamic", "batching")


@dataclass(frozen=True)
class Grid:
    """One workload of the benchmark: cells, their labels, and how to run them."""

    name: str
    jobs: tuple[SweepJob, ...]
    #: configuration key of each cell, e.g. ``"private_16x"``
    labels: tuple[str, ...]
    workers: int
    attacked: bool


def build(
    name: str, seed: int, scale: float | None = None, workloads: Sequence[str] | None = None
) -> Grid:
    """The grid of workload ``name`` at ``seed``.

    ``scale`` defaults to the workload's benchmark scale; ``workloads``
    restricts the grid to some of its Table IV workloads (the self-test
    uses both to stay small).
    """
    default_scale, workers = WORKLOADS[name]
    scale = default_scale if scale is None else scale
    cells: list[tuple[str, str, object]] = []
    if name in ("fig21", "fig21-par2"):
        configs = {"unsecure": scheme_config("unsecure", n_gpus=N_GPUS)}
        configs.update(build_configs(N_GPUS))
        names = [spec.name for spec in all_workloads()]
        cells = [(w, key, cfg) for w in names for key, cfg in configs.items()]
    elif name == "high-rpki":
        cells = [
            (w, s, scheme_config(s, n_gpus=N_GPUS))
            for w in HIGH_RPKI_WORKLOADS
            for s in ALL_SCHEMES
        ]
    elif name == "under-attack":
        adversary = adversary_overrides("all", 0.04, seed=seed, quarantine_threshold=6)
        cells = [
            (
                w,
                s,
                scheme_config(s, n_gpus=N_GPUS)
                # With the default budget of 8 retransmissions, faults and
                # the adversary together exhaust it on 2 of 450 cells
                # (spmv, seeds 1-30); 16 leaves every cell of seeds 1-60
                # delivered, so no run fails by a link giving up.
                .with_fault(drop_rate=0.01, corrupt_rate=0.01, seed=seed, max_retries=16)
                .with_adversary(**adversary),
            )
            for w in ATTACK_WORKLOADS
            for s in ATTACK_SCHEMES
        ]
    if workloads is not None:
        cells = [cell for cell in cells if cell[0] in workloads]
    return Grid(
        name=name,
        jobs=tuple(
            SweepJob(spec=get_workload(w), config=cfg, seed=seed, scale=scale)
            for w, _key, cfg in cells
        ),
        labels=tuple(key for _w, key, _cfg in cells),
        workers=workers,
        attacked=name == "under-attack",
    )


def cell_id(job: SweepJob) -> str:
    """A cell's name, unique within every grid (``describe`` alone does not
    tell Private 4x from Private 16x)."""
    return f"{job.describe()}/otp{job.config.security.otp_multiplier}x"


def trace_requests(grid: Grid) -> list[tuple]:
    """The distinct ``TraceStore.get_or_generate`` arguments of a grid."""
    seen: dict[tuple, None] = {}
    for job in grid.jobs:
        seen[(job.spec, job.config.n_gpus, job.seed, job.scale, job.n_lanes)] = None
    return list(seen)


class _Cell:
    """What :func:`repro.verify.analytic.check_report` reads of a cell.

    ``CellRef`` rebuilds its config from the scheme name alone, which loses
    ``otp_multiplier`` (``private_16x``) and the fault/adversary sections,
    so the checks here see the job's real configuration.
    """

    def __init__(self, job: SweepJob, scheme: str) -> None:
        self.job = job
        self.scheme = scheme
        self.n_gpus = job.config.n_gpus

    def config(self):
        return self.job.config

    def describe(self) -> str:
        return self.job.describe()


def cell_errors(grid: Grid, reports: Sequence) -> list[str]:
    """One message per failed cell: an analytic-law violation, or under
    attack, an attack accepted undetected or never resolved."""
    errors = []
    for job, report in zip(grid.jobs, reports):
        problems = [v.oracle for v in check_report(_Cell(job, report.scheme), report)]
        if grid.attacked:
            attacks = report.attack_report
            if attacks is None:
                problems.append("no attack ledger")
            elif attacks.accepted_undetected or attacks.unresolved:
                problems.append(
                    f"{attacks.accepted_undetected} accepted undetected, "
                    f"{attacks.unresolved} unresolved"
                )
        if problems:
            errors.append(f"{job.describe()}: {'; '.join(problems)}")
    return errors


def canonical(report) -> str:
    """The canonical JSON of a report (sorted keys, compact)."""
    return json.dumps(report_to_dict(report), sort_keys=True, separators=(",", ":"))


def digest(reports: Sequence) -> str:
    """SHA-256 of the canonical report JSON, one line per cell in input order."""
    return hashlib.sha256("\n".join(canonical(r) for r in reports).encode()).hexdigest()


__all__ = [
    "Grid",
    "WORKLOADS",
    "build",
    "canonical",
    "cell_errors",
    "digest",
    "trace_requests",
]
