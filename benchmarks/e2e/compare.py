"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl [--claim WORKLOAD:METRIC]

Each file holds the records ``run.py --out`` appends, one JSON line per
run; A is the parent (or the first set), B the change (or the second).
For every (workload, metric) the tool prints both medians and quartiles
and classifies the change against the bound ``BENCHMARK.json`` fixes:

* ``ok``         B's median is no worse than A's by more than the bound,
* ``worse``      it is worse by more than the bound,
* ``unresolved`` either set's spread (interquartile range over median) is
                 wider than the bound, unless every run of B reads better
                 than every run of A.

Per-layer metrics (records of ``--trace 1`` runs) have no bound; they are
listed with their relative change only.  The tool also reports whether
digests, ``error_rate`` and ``fidelity_err_pp`` agree between the sets
(per workload and seed), and the pool speed-up ``fig21`` / ``fig21-par2``
``wall_s`` of each set.

``--claim`` applies the rule for claiming a gain on one pair: B wins at
least 9 of every 10 pairs of runs (A's i-th run against B's i-th; ties
count for neither), and the medians differ by more than A's interquartile
range.  The exit code is 1 when a metric is ``worse`` or a claim is not met.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[2]
EXACT = ("digest", "error_rate", "fidelity_err_pp")


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def worsening(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of |A| (negative = better)."""
    delta = b - a if better == "lower" else a - b
    if a == 0:
        return 0.0 if delta == 0 else math.copysign(math.inf, delta)
    return delta / abs(a)


def classify(a: list[float], b: list[float], better: str, bound: float) -> str:
    def sign(x):  # larger = better
        return -x if better == "lower" else x

    if min(sign(x) for x in b) > max(sign(x) for x in a):
        return "ok"
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    return "worse" if worsening(median(a), median(b), better) > bound else "ok"


def claim(a: list[float], b: list[float], better: str) -> tuple[bool, str]:
    """The gain rule: >= 9/10 pairs won and a median gap beyond A's IQR."""
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if (y < x if better == "lower" else y > x))
    q1, mid_a, q3 = quartiles(a)
    gap = abs(median(b) - mid_a)
    improved = worsening(mid_a, median(b), better) < 0
    met = bool(pairs) and wins >= 0.9 * len(pairs) and gap > (q3 - q1) and improved
    return met, f"{wins}/{len(pairs)} pairs won, median gap {gap:.6g} vs A's IQR {q3 - q1:.6g}"


def series(records: list[dict], trace: int) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = {}
    for rec in records:
        if rec["trace"] == trace:
            for name, value in rec["metrics"].items():
                out.setdefault((rec["workload"], name), []).append(value)
    return out


def exact_values(records: list[dict]) -> dict[tuple, set]:
    out: dict[tuple, set] = {}
    for rec in records:
        for name in EXACT:
            if name in rec:
                out.setdefault((rec["workload"], rec["seed"], name), set()).add(rec[name])
    return out


def pool_speedup(records: list[dict]) -> float | None:
    walls = series(records, 0)
    serial, pool = walls.get(("fig21", "wall_s")), walls.get(("fig21-par2", "wall_s"))
    return median(serial) / median(pool) if serial and pool else None


def _row(label: str, values: list[float]) -> str:
    q1, mid, q3 = quartiles(values)
    return f"{label} {mid:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="records of the parent / first set (JSON lines)")
    parser.add_argument("b", help="records of the change / second set (JSON lines)")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)

    spec = json.loads(Path(args.benchmark).read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    rec_a, rec_b = load(args.a), load(args.b)
    failed = False

    for trace, declared in ((0, end_to_end), (1, per_layer)):
        sa, sb = series(rec_a, trace), series(rec_b, trace)
        for key in sorted(set(sa) & set(sb)):
            workload, name = key
            metric = declared.get(name)
            if metric is None:
                continue
            a, b = sa[key], sb[key]
            change = worsening(median(a), median(b), metric["better"])
            if trace == 0:
                verdict = classify(a, b, metric["better"], metric["bound"])
                failed |= verdict == "worse"
                tail = f"worse by {change:+.1%} (bound {metric['bound']:.0%}): {verdict}"
            else:
                tail = f"worse by {change:+.1%}"
            print(f"{workload:13s} {name:26s} {_row('A', a)} | {_row('B', b)} | {tail}")

    ea, eb = exact_values(rec_a), exact_values(rec_b)
    for key in sorted(set(ea) & set(eb), key=str):
        same = len(ea[key] | eb[key]) == 1
        print(f"{key[0]:13s} {key[2]} @ seed {key[1]}: {'identical' if same else 'DIFFERS'}")
    for label, records in (("A", rec_a), ("B", rec_b)):
        speedup = pool_speedup(records)
        if speedup is not None:
            print(f"pool speed-up {label}: fig21 / fig21-par2 wall_s = {speedup:.3f}x")

    for spec_text in args.claim:
        workload, _, name = spec_text.partition(":")
        metric = end_to_end.get(name) or per_layer.get(name)
        trace = 0 if name in end_to_end else 1
        a, b = series(rec_a, trace).get((workload, name)), series(rec_b, trace).get((workload, name))
        if metric is None or not a or not b:
            print(f"claim {spec_text}: no runs in both sets")
            failed = True
            continue
        met, detail = claim(a, b, metric["better"])
        failed |= not met
        print(f"claim {spec_text}: {'met' if met else 'NOT met'} ({detail})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
