"""The two subprocess bodies of a benchmark run: set-up and the timed run.

``run.py`` starts each in a fresh interpreter with ``src`` on the path:

* ``setup``   (subprocess A) imports ``repro`` and generates every trace of
  the grid into an empty trace store.  Its wall time is ``setup_s``.
* ``measure`` (subprocess B) runs the grid with ``SweepRunner.run_jobs``
  against a fresh ``TraceStore`` on that directory (so the disk loads a
  user pays once per process are timed) and no result cache, again and
  again until the time budget is spent.  It writes the raw measurements
  as JSON; ``run.py`` turns them into metrics.

Only public entry points are called.  The one hook is a wrapper around
``repro.runner.sweep.execute_job`` that times each cell with one timer
pair; pool workers are forked from the measuring process, inherit it, and
append their cell records to files of their own (:class:`CellLog`).

Usage (normally via ``run.py``)::

    python3 benchmarks/e2e/harness.py setup --workload fig21 --seed 1 --store DIR
    python3 benchmarks/e2e/harness.py measure --workload fig21 --seed 1 \\
        --store DIR --logs DIR --seconds 30 --trace 0 --out result.json
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy

import repro.runner.sweep as sweep
from repro.runner import SweepRunner
from repro.runner.trace_store import TraceStore
from repro.verify.violations import metric_value

import grids
from fidelity import average_slowdowns, fidelity_err_pp
from tracer import Scope, Tracer

#: cells re-run serially after a pool run to check pool == serial: every
#: 17th cell, which in the Fig 21 grid is one cell of each scheme, each on a
#: different workload
POOL_CHECK_STRIDE = 17


class CellLog:
    """Per-cell records, one JSON line each, in one file per process."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def append(self, record: dict) -> None:
        with open(self.directory / f"cells-{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps(record) + "\n")

    def drain(self) -> list[dict]:
        """Every record written so far, by any process; the files are removed."""
        records = []
        for path in sorted(self.directory.glob("cells-*.jsonl")):
            with open(path) as fh:
                records.extend(json.loads(line) for line in fh)
            path.unlink()
        return records


@contextmanager
def cell_hook(log: CellLog, tracer: Tracer | None = None):
    """Time every cell the sweep runner executes; with a tracer, also give
    each cell its own span scope and log its per-layer aggregates."""
    original = sweep.execute_job

    def execute_job(job, **kwargs):
        start = perf_counter()
        if tracer is None:
            report = original(job, **kwargs)
            log.append({"s": perf_counter() - start, "cell": grids.cell_id(job)})
        else:
            report, scope = tracer.run_cell(original, (job,), kwargs)
            log.append({"s": perf_counter() - start, "cell": grids.cell_id(job), **scope.as_dict()})
        return report

    sweep.execute_job = execute_job
    try:
        yield
    finally:
        sweep.execute_job = original


def report_counts(reports) -> dict[str, int]:
    """Deterministic totals over a grid's reports (simulated, not host time)."""
    c: Counter = Counter()
    for r in reports:
        c["events"] += r.events_processed
        c["pushes"] += metric_value(r, "engine.pushes")
        c["cancelled"] += metric_value(r, "engine.cancelled")
        c["cycles"] += r.execution_cycles
        c["remote_requests"] += r.remote_requests
        c["migrations"] += r.migrations
        c["bytes"] += r.traffic_bytes
        c["meta_bytes"] += r.meta_traffic_bytes
        c["msgs"] += metric_value(r, "msg.sent")
        c["secured"] += metric_value(r, "meta.conventional_msgs") + metric_value(
            r, "meta.batched_blocks"
        )
        for direction in ("send", "recv"):
            outcomes = r.metrics.get(f"otp.{direction}", {}).get("counts", {})
            c[f"otp_{direction}"] += sum(outcomes.values())
            c[f"otp_{direction}_hidden"] += outcomes.get("hit", 0) + outcomes.get("partial", 0)
        c["acks"] += r.acks_sent
        c["batches_opened"] += metric_value(r, "batch.opened")
        c["batches_closed_full"] += metric_value(r, "batch.closed_full")
        c["alloc_adjustments"] += metric_value(r, "alloc.adjustments")
        if r.fault_stats is not None:
            c["retransmits"] += r.fault_stats.retransmits
        if r.attack_report is not None:
            c["attacks_detected"] += r.attack_report.total_detected
            c["accepted_undetected"] += r.attack_report.accepted_undetected
    return dict(c)


def _run_grid(grid: grids.Grid, store_dir: str, log: CellLog, tracer: Tracer | None):
    """One timed ``run_jobs`` call of the whole grid, then its checks."""
    runner = SweepRunner(jobs=grid.workers, trace_store=TraceStore(store_dir))
    if tracer is not None:
        tracer.scope = Scope()
    reports, error = None, None
    start = perf_counter()
    try:
        reports = runner.run_jobs(grid.jobs)
    except Exception as exc:  # a failed cell fails the grid; keep measuring
        error = f"{type(exc).__name__}: {exc}"
    wall = perf_counter() - start
    cells = log.drain()
    stats = runner.stats
    rep = {
        "wall_s": wall,
        "cell_s": {cell["cell"]: cell["s"] for cell in cells},
        "mode": stats.mode,
        "ipc_s": stats.ipc_s,
        "retries": stats.retries,
        "fallbacks": stats.fallbacks,
        "error": error,
    }
    if reports is not None:
        rep["digest"] = grids.digest(reports)
        rep["cell_errors"] = grids.cell_errors(grid, reports)
    if tracer is not None:
        rep["sweep"] = tracer.scope.as_dict()
        rep["cells"] = [{k: v for k, v in cell.items() if k != "s"} for cell in cells]
    return rep, reports


def measure(
    grid: grids.Grid,
    store_dir: str,
    log_dir: str,
    seconds: float,
    trace: bool = False,
) -> dict:
    """Run ``grid`` repeatedly for about ``seconds`` and return raw measurements.

    A grid is started only if the longest one so far still fits in the
    budget; at least one always runs.  With ``trace``, one untraced grid
    runs first (the base of the tracing overhead), then traced ones.
    """
    log = CellLog(log_dir)
    deadline = perf_counter() + seconds
    out: dict = {"reps": [], "traced_reps": []}
    first_reports = None
    longest = 0.0

    def run(tracer, into):
        nonlocal first_reports, longest
        started = perf_counter()
        rep, reports = _run_grid(grid, store_dir, log, tracer)
        into.append(rep)
        if first_reports is None and reports is not None:
            first_reports = reports
        longest = max(longest, perf_counter() - started)
        return perf_counter() + longest <= deadline

    with cell_hook(log):
        while run(None, out["reps"]) and not trace:
            pass  # a traced run times one untraced grid, as the overhead's base
    if trace:
        tracer = Tracer().install()
        try:
            with cell_hook(log, tracer):
                while run(tracer, out["traced_reps"]):
                    pass
        finally:
            tracer.uninstall()

    out["pool_mismatch"] = []
    if first_reports is not None:
        out["counts"] = report_counts(first_reports)
        if grid.workers > 1:
            out["pool_mismatch"] = _pool_check(grid, store_dir, first_reports)
        if grid.name in ("fig21", "fig21-par2"):
            averages = average_slowdowns(grid.labels, grid.jobs, first_reports)
            out["fidelity_err_pp"] = fidelity_err_pp(averages)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = max(self_kb, children_kb) / 1024.0
    out["cells"] = len(grid.jobs)
    out["numpy"] = numpy.__version__
    return out


def _pool_check(grid: grids.Grid, store_dir: str, reports) -> list[str]:
    """Re-run a sample of cells serially; the cells whose canonical report
    differs from the pool's."""
    picks = range(0, len(grid.jobs), POOL_CHECK_STRIDE)
    serial = SweepRunner(jobs=1, trace_store=TraceStore(store_dir)).run_jobs(
        [grid.jobs[i] for i in picks]
    )
    return [
        grid.jobs[i].describe()
        for i, again in zip(picks, serial)
        if grids.canonical(again) != grids.canonical(reports[i])
    ]


def setup(grid: grids.Grid, store_dir: str, trace: bool = False) -> dict:
    """Generate every trace of ``grid`` into the store at ``store_dir``."""
    tracer = Tracer().install() if trace else None
    try:
        store = TraceStore(store_dir)
        accesses = 0
        requests = grids.trace_requests(grid)
        for request in requests:
            compiled, _source = store.get_or_generate(*request)
            accesses += compiled.total_accesses
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {"traces": len(requests), "accesses": accesses}
    if tracer is not None:
        out["layers"] = tracer.scope.as_dict()["layers"]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("phase", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(grids.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True, help="trace store directory")
    parser.add_argument("--logs", help="directory for per-cell records (measure)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the result JSON here")
    args = parser.parse_args(argv)

    grid = grids.build(args.workload, args.seed)
    if args.phase == "setup":
        result = setup(grid, args.store, trace=bool(args.trace))
    else:
        if not args.logs:
            parser.error("measure needs --logs")
        result = measure(grid, args.store, args.logs, args.seconds, trace=bool(args.trace))
    if args.out:
        Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
