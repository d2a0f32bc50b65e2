"""Failing-cell shrinker: bisect a violation down to a minimal repro.

Given one :class:`~repro.verify.violations.Violation`, the shrinker tries
progressively cheaper configurations that still reproduce it, in order:

1. **cell-set reduction** — a group violation naming many cells is re-run
   on subsets until no cell can be dropped (differential laws need at most
   a pair; analytic and metamorphic laws need one cell);
2. **GPU reduction** — try the smallest GPU counts first (2, then 3);
3. **scale ladder** — try the smallest workload scales first
   (0.05, 0.1, 0.25).

Every accepted step re-runs the *original oracle* on the candidate cells
(:func:`evaluate_cells`), so the minimized artifact provably still fails
the same law, and every step — accepted or rejected — lands in the
artifact's ``shrink_log``.  Fleet-level violations (geomean chain, seed
stability) aggregate over the whole matrix and are reported unshrunk.
"""

from __future__ import annotations

import dataclasses

from repro.runner import execute_job

from repro.verify import analytic, differential, metamorphic
from repro.verify.violations import CellRef, ReproArtifact, Violation

#: tried smallest-first; the original scale terminates the ladder
SCALE_LADDER = (0.05, 0.1, 0.25)

#: tried smallest-first; the original count terminates the ladder
GPU_LADDER = (2, 3)

#: fleet-level oracles aggregate the whole matrix; no single small cell
#: set can reproduce them, so they ship unshrunk
UNSHRINKABLE = ("differential.geomean_chain", "metamorphic.seed_stability")


def _run_cell(cell: CellRef, trace_store=None):
    """Simulate ``cell``; returns its report and the trace it replayed."""
    job = cell.job()
    if trace_store is not None:
        trace, _source = trace_store.get_or_generate(
            job.spec, job.config.n_gpus, job.seed, job.scale, job.n_lanes
        )
    else:
        trace = job.spec.generate(
            n_gpus=job.config.n_gpus, seed=job.seed, scale=job.scale, n_lanes=job.n_lanes
        )
    return execute_job(job, trace=trace), trace


def evaluate_cells(
    oracle: str, cells: list[CellRef], trace_store=None
) -> list[Violation]:
    """Re-run exactly the oracle that produced ``oracle`` on ``cells``.

    Returns the violations of that oracle found on the candidate cell set
    (empty list = the candidate does not reproduce the failure).
    """
    if oracle.startswith("analytic."):
        out: list[Violation] = []
        for cell in cells:
            report, trace = _run_cell(cell, trace_store)
            out += analytic.check_report(cell, report)
            out += analytic.check_collective_trace(cell, trace)
        return [v for v in out if v.oracle == oracle]

    if oracle.startswith("differential."):
        groups: dict[tuple, dict[str, CellRef]] = {}
        for cell in cells:
            key = (cell.workload, cell.n_gpus, cell.seed, cell.scale, cell.variant)
            groups.setdefault(key, {})[cell.scheme] = cell
        out = []
        for by_scheme in groups.values():
            reports = {
                scheme: _run_cell(cell, trace_store)[0]
                for scheme, cell in by_scheme.items()
            }
            out += differential.check_group(by_scheme, reports)
        return [v for v in out if v.oracle == oracle]

    if oracle.startswith("metamorphic."):
        out = []
        for cell in cells:
            if cell.variant != "plain":
                continue  # dormant companions re-run inside check_dormant
            report, trace = _run_cell(cell, trace_store)
            if oracle.startswith("metamorphic.relabel"):
                out += metamorphic.check_relabel(cell, trace, report)
            elif oracle == "metamorphic.batch_size_one":
                out += metamorphic.check_batch_size_one(cell, trace)
            elif oracle == "metamorphic.dormant_config":
                out += metamorphic.check_dormant(cell, trace, report)
        return [v for v in out if v.oracle == oracle]

    return []


def _with(cell: CellRef, **overrides) -> CellRef:
    return dataclasses.replace(cell, **overrides)


def shrink(violation: Violation, trace_store=None) -> ReproArtifact:
    """Minimize a violation to the cheapest cell set that still fails."""
    log: list[str] = []
    if violation.oracle in UNSHRINKABLE or not violation.cells:
        log.append(f"{violation.oracle} is fleet-level: reported unshrunk")
        return ReproArtifact(violation=violation, cells=list(violation.cells), shrink_log=log)

    best = violation
    cells = list(violation.cells)

    def attempt(candidate: list[CellRef], step: str) -> bool:
        nonlocal best, cells
        found = evaluate_cells(violation.oracle, candidate, trace_store)
        if found:
            best = found[0]
            cells = candidate
            log.append(f"{step}: still fails -> kept")
            return True
        log.append(f"{step}: passes -> rejected")
        return False

    # 1. drop cells one at a time (greedy ddmin is enough at these sizes)
    if len(cells) > 1:
        i = 0
        while i < len(cells) and len(cells) > 1:
            candidate = cells[:i] + cells[i + 1 :]
            if attempt(candidate, f"drop cell {cells[i].describe()}"):
                continue  # same index now points at the next cell
            i += 1

    # 2. fewer GPUs, smallest first
    for n in GPU_LADDER:
        if n >= min(c.n_gpus for c in cells):
            break
        if attempt([_with(c, n_gpus=n) for c in cells], f"reduce to {n} GPUs"):
            break

    # 3. smaller scale, smallest first
    for scale in SCALE_LADDER:
        if scale >= min(c.scale for c in cells):
            break
        if attempt([_with(c, scale=scale) for c in cells], f"reduce to scale {scale}"):
            break

    return ReproArtifact(violation=best, cells=cells, shrink_log=log)


__all__ = ["SCALE_LADDER", "GPU_LADDER", "UNSHRINKABLE", "evaluate_cells", "shrink"]
