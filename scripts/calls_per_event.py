"""Python calls per simulated event over one benchmark grid: a deterministic
companion to the noisy wall-clock pairs of ``scripts/ab_pairs.py``.

    python3 scripts/calls_per_event.py high-rpki [--seed 1] [--show NAME ...]

Generates the grid's traces first, then runs the whole grid once with a
serial ``SweepRunner.run_jobs`` under cProfile and prints the total call
count, the sum of the cells' ``events_processed``, their ratio, and the
grid's report digest.  ``--show`` also prints the call count of every
profiled function with that name (e.g. ``_pump``).  The counts depend only
on the code and the grid, not on the machine's load.

Calls are summed over cProfile's raw entries (:func:`call_counts`), not
read from ``pstats.Stats.total_calls``: pstats keys functions by
``(file, line, name)`` and keeps one entry per key, and every dataclass
``__init__`` is compiled from the same ``<string>`` source line, so pstats
drops all of them but one.
"""

from __future__ import annotations

import argparse
import cProfile
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def call_counts(profile: cProfile.Profile) -> dict[tuple[str, int, str], int]:
    """Calls per ``(file, line, name)``, summed over every raw entry of
    ``profile``; built-in functions are keyed ``("~", 0, name)``."""
    counts: dict[tuple[str, int, str], int] = {}
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):
            key = ("~", 0, code)
        else:
            key = (code.co_filename, code.co_firstlineno, code.co_name)
        counts[key] = counts.get(key, 0) + entry.callcount
    return counts


def main(argv: list[str] | None = None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]
    import grids
    from repro.runner.sweep import SweepRunner
    from repro.runner.trace_store import TraceStore

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(grids.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--show", action="append", default=[], metavar="NAME")
    args = parser.parse_args(argv)

    grid = grids.build(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix="calls_per_event_") as store_dir:
        store = TraceStore(store_dir)
        for request in grids.trace_requests(grid):
            store.get_or_generate(*request)
        runner = SweepRunner(jobs=1, trace_store=store)
        profile = cProfile.Profile()
        profile.enable()
        reports = runner.run_jobs(grid.jobs)
        profile.disable()

    counts = call_counts(profile)
    total = sum(counts.values())
    events = sum(report.events_processed for report in reports)
    print(f"{args.workload} seed {args.seed}")
    print(f"total_calls {total}")
    print(f"events {events}")
    print(f"calls_per_event {total / events:.2f}")
    print(f"digest {grids.digest(reports)}")
    for (filename, line, name), calls in sorted(counts.items()):
        if name in args.show:
            print(f"calls {name} {calls} {Path(filename).name}:{line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
