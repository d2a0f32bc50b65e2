"""End-to-end benchmark of the secure multi-GPU simulator: one workload, one run.

    python3 benchmarks/e2e/run.py --workload fig21 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The run is a closed loop: one caller
submits one grid and waits for it; the only other load is the grid's own
pool (at most 2 workers).  Steps:

1. set-up, in fresh interpreters (``harness.py setup``): import ``repro``
   and generate every trace of the grid into an empty trace store.  It
   runs five times; ``setup_s`` is the median wall time.  A traced run
   sets up once, traced, for the ``workloads`` layer numbers.
2. the timed run, in one more fresh interpreter (``harness.py measure``):
   the grid runs again and again for ``--seconds`` seconds.
3. checks: every cell must satisfy the analytic laws of
   ``repro.verify.analytic`` (under attack, also no accepted or unresolved
   attack), every repetition must give the same report digest, and a pool
   run must match a serial re-run of a sample of its cells.

It prints one ``<workload> <metric> <value> <unit>`` line per metric and,
as its last line, a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  ``--out FILE`` appends the full
record as one JSON line.  Scratch files live under ``.bench_build/`` in
the checkout and are removed at exit.  The exit code is 0 when every
check passed, 1 when one failed, and 2 when the checkout has no
``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SETUP_RUNS = 5
#: a subprocess that takes longer than this is stuck; the whole run must
#: end within 180 s
SUBPROCESS_TIMEOUT_S = 150


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _subprocess(args: list[str], env: dict) -> float:
    """Run one harness phase; returns its wall time in seconds.

    The wait blocks in ``waitpid`` and a watchdog thread enforces the
    timeout: ``subprocess.run(timeout=...)`` polls instead, which rounds
    the measured wall time up to steps of up to 50 ms.
    """
    cmd = [sys.executable, str(HERE / "harness.py"), *args]
    start = perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    watchdog = threading.Timer(SUBPROCESS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


def layer_totals(rep: dict) -> tuple[dict, dict]:
    """Per-layer ``[self_s, spans]`` and boundary counts summed over the
    sweep scope and every cell scope of one traced grid."""
    layers: dict[str, list] = {}
    counts: dict[str, float] = {}
    for scope in [rep["sweep"], *rep["cells"]]:
        for layer, (self_s, spans) in scope["layers"].items():
            acc = layers.setdefault(layer, [0.0, 0])
            acc[0] += self_s
            acc[1] += spans
        for name, amount in scope["counts"].items():
            counts[name] = counts.get(name, 0) + amount
    return layers, counts


def end_to_end_metrics(setup_walls: list[float], result: dict) -> dict[str, float]:
    wall = median(rep["wall_s"] for rep in result["reps"])
    return {
        "setup_s": median(setup_walls),
        "wall_s": wall,
        "events_per_s": result.get("counts", {}).get("events", 0) / wall,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def cell_percentiles(result: dict) -> tuple[float, float]:
    """Median and 90th percentile of the untraced cell times, pooled over
    repetitions.  Printed, not graded: on the 15- and 21-cell grids the
    median and p90 land on a few cells whose work moves with the seed."""
    cells = [s for rep in result["reps"] for s in rep["cell_s"].values()]
    if len(cells) < 2:
        only = cells[0] if cells else 0.0
        return only, only
    return median(cells), quantiles(cells, n=10)[-1]


def per_layer_metrics(setup_result: dict, result: dict) -> dict[str, float]:
    traced = result["traced_reps"]
    totals = [layer_totals(rep) for rep in traced]
    layers, counts = totals[0]
    c = result.get("counts", {})

    def self_s(layer: str) -> float:
        return median(t[0].get(layer, [0.0, 0])[0] for t in totals)

    setup_layers = setup_result.get("layers", {})
    return {
        "sim.self_s": self_s("sim"),
        "sim.spans": layers.get("sim", [0, 0])[1],
        "sim.events": c.get("events", 0),
        "sim.pushes": c.get("pushes", 0),
        "sim.cancelled_ratio": _ratio(c.get("cancelled", 0), c.get("pushes", 0)),
        "sim.cycles": c.get("cycles", 0),
        "gpu.self_s": self_s("gpu"),
        "gpu.spans": layers.get("gpu", [0, 0])[1],
        "gpu.remote_requests": c.get("remote_requests", 0),
        "gpu.l1_hit_ratio": _ratio(counts.get("l1.hits", 0), counts.get("l1.lookups", 0)),
        "gpu.l2_hit_ratio": _ratio(counts.get("l2.hits", 0), counts.get("l2.lookups", 0)),
        "gpu.tlb_hit_ratio": 1.0
        - _ratio(counts.get("tlb.walks", 0), counts.get("tlb.translations", 0)),
        "memory.self_s": self_s("memory"),
        "memory.migrations": c.get("migrations", 0),
        "interconnect.self_s": self_s("interconnect"),
        "interconnect.bytes": c.get("bytes", 0),
        "interconnect.meta_bytes": c.get("meta_bytes", 0),
        "interconnect.msgs": c.get("msgs", 0),
        "secure.self_s": self_s("secure"),
        "secure.otp_send_hidden": _ratio(c.get("otp_send_hidden", 0), c.get("otp_send", 0)),
        "secure.otp_recv_hidden": _ratio(c.get("otp_recv_hidden", 0), c.get("otp_recv", 0)),
        "secure.acks": c.get("acks", 0),
        "secure.retransmit_ratio": _ratio(c.get("retransmits", 0), c.get("secured", 0)),
        "secure.attacks_detected": c.get("attacks_detected", 0),
        "secure.accepted_undetected": c.get("accepted_undetected", 0),
        "core.self_s": self_s("core"),
        "core.batch_full_ratio": _ratio(
            c.get("batches_closed_full", 0), c.get("batches_opened", 0)
        ),
        "core.alloc_adjustments": c.get("alloc_adjustments", 0),
        "system.self_s": self_s("system"),
        "runner.self_s": self_s("runner"),
        "runner.store_load_s": median(t[1].get("store.load_s", 0.0) for t in totals),
        "runner.ipc_wait_s": median(rep["ipc_s"] for rep in traced),
        "runner.trace_store_hits": counts.get("store.disk", 0),
        "runner.retries": sum(rep["retries"] for rep in traced),
        "runner.fallbacks": sum(rep["fallbacks"] for rep in traced),
        "workloads.self_s": setup_layers.get("workloads", [0.0, 0])[0],
        "workloads.accesses": setup_result.get("accesses", 0),
        "trace.overhead": median(rep["wall_s"] for rep in traced)
        / median(rep["wall_s"] for rep in result["reps"]),
    }


def tally(result: dict) -> tuple[int, int, list[str]]:
    """``(attempted, failed, reasons)`` over every grid the run executed.

    A cell fails when it breaks a check; every cell of a grid fails when
    the grid raised, when its digest differs from the run's first one, or
    when the pool disagreed with the serial re-run.
    """
    attempted = failed = 0
    reasons: list[str] = []
    reference = None
    n = result["cells"]
    for rep in result["reps"] + result["traced_reps"]:
        attempted += n
        if rep["error"] is not None:
            failed += n
            reasons.append(rep["error"])
            continue
        reference = reference or rep["digest"]
        if rep["digest"] != reference:
            failed += n
            reasons.append(f"digest {rep['digest'][:12]} differs from {reference[:12]}")
            continue
        failed += len(rep["cell_errors"])
        reasons.extend(rep["cell_errors"])
    if result["pool_mismatch"]:
        failed = attempted
        reasons.extend(f"pool != serial: {cell}" for cell in result["pool_mismatch"])
    return attempted, failed, reasons


def declared(section: str) -> list[dict]:
    """One section of ``BENCHMARK.json``: its workloads or metrics, in order."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[section]


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit of one metric section of ``BENCHMARK.json``."""
    return {metric["name"]: metric["unit"] for metric in declared(section)}


def emit(
    workload: str,
    seed: int,
    trace: bool,
    setup_walls: list[float],
    setup_result: dict,
    result: dict,
    out: str | None = None,
) -> bool:
    """Print every metric line and, last, the result line; returns whether
    every check passed.  With ``out``, also append the full record there."""
    if trace:
        metrics = per_layer_metrics(setup_result, result)
        units = declared_units("per_layer")
    else:
        metrics = end_to_end_metrics(setup_walls, result)
        units = declared_units("end_to_end")
    if set(metrics) != set(units):
        raise ValueError(f"computed metrics {sorted(metrics)} != declared {sorted(units)}")
    attempted, failed, reasons = tally(result)
    digest = next((rep["digest"] for rep in result["reps"] if rep["error"] is None), "none")
    p50, p90 = cell_percentiles(result)
    extras = {
        "cell_s_p50": (p50, "s"),
        "cell_s_p90": (p90, "s"),
        "error_rate": (failed / attempted, "ratio"),
        "reps": (len(result["reps"]) + len(result["traced_reps"]), "count"),
        "cells": (result["cells"], "count"),
        "digest": (digest, "sha256"),
    }
    if "fidelity_err_pp" in result:
        extras["fidelity_err_pp"] = (result["fidelity_err_pp"], "pp")

    for reason in reasons[:20]:
        print(f"{workload} FAILED {reason}")
    for name, unit in units.items():
        print(f"{workload} {name} {metrics[name]} {unit}")
    for name, (value, unit) in extras.items():
        print(f"{workload} {name} {value} {unit}")
    if out:
        record = {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            **{name: value for name, (value, _unit) in extras.items()},
            "machine": {
                "nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": result.get("numpy"),
                "platform": platform.platform(),
            },
        }
        if trace:
            record["layer_table"] = result["traced_reps"][0]["cells"]
        with open(out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return failed == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in declared("workloads")]
    )
    parser.add_argument("--seed", type=int, default=1, help="workload and injector seed")
    parser.add_argument("--seconds", type=int, default=30, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_build" / "e2e" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    try:
        setup_walls = []
        for i in range(1 if args.trace else SETUP_RUNS):
            store = work / f"store-{i}"
            setup_walls.append(
                _subprocess(
                    ["setup", *common, "--store", str(store), "--out", str(work / "setup.json")],
                    env,
                )
            )
        _subprocess(
            [
                "measure",
                *common,
                "--store", str(store),
                "--logs", str(work / "cells"),
                "--seconds", str(args.seconds),
                "--out", str(work / "measure.json"),
            ],
            env,
        )
        setup_result = json.loads((work / "setup.json").read_text())
        result = json.loads((work / "measure.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ok = emit(
        args.workload, args.seed, bool(args.trace), setup_walls, setup_result, result, args.out
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
