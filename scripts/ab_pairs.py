"""Alternating A/B pairs of the end-to-end benchmark: a parent ref against
the working tree.

    python3 scripts/ab_pairs.py --parent REF --workload W --seed S --pairs N \
        --tag NAME [--seconds 30] [--claim W:METRIC]

The parent is exported with ``git archive REF`` into a temporary
directory.  Each pair runs ``benchmarks/e2e/run.py --out`` once on each
side, one run at a time; the side that goes first alternates from pair to
pair (the parent opens pair 1), so a slow drift of the machine loads both
sides alike.  Records are appended to ``results/BENCH_<NAME>-parent.jsonl``
and ``results/BENCH_<NAME>-change.jsonl`` of the working tree, and then
``benchmarks/e2e/compare.py`` compares the two files, with ``--claim``
when one is given.  The exit code is compare.py's.

Run it from anywhere inside the working tree; the benchmark itself puts
each side's ``src/`` on its own path.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def pair_order(n_pairs: int) -> list[tuple[str, str]]:
    """The order of the two sides in each pair: the parent opens the odd
    pairs (1st, 3rd, ...) and the change the even ones."""
    return [SIDES if i % 2 == 0 else SIDES[::-1] for i in range(n_pairs)]


def export(ref: str, dest: Path) -> None:
    """Write the tree of ``ref`` into ``dest`` with ``git archive``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref], cwd=ROOT, capture_output=True, check=True
    )
    with tempfile.TemporaryFile() as tar_file:
        tar_file.write(archive.stdout)
        tar_file.seek(0)
        with tarfile.open(fileobj=tar_file) as tar:
            if hasattr(tarfile, "data_filter"):  # Python 3.10.12+, 3.11.4+
                tar.extractall(dest, filter="data")
            else:
                tar.extractall(dest)


def run_side(
    checkout: Path, workload: str, seed: int, seconds: int, out: Path
) -> int:
    """One benchmark run from ``checkout``; its record is appended to ``out``."""
    command = [
        sys.executable,
        "benchmarks/e2e/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--out",
        str(out),
    ]
    return subprocess.run(command, cwd=checkout).returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent side")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30, help="measuring time of each run")
    parser.add_argument("--tag", required=True, help="records go to results/BENCH_<tag>-*.jsonl")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    outs = {side: ROOT / "results" / f"BENCH_{args.tag}-{side}.jsonl" for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as scratch:
        parent_tree = Path(scratch) / "parent"
        parent_tree.mkdir()
        export(args.parent, parent_tree)
        checkouts = {"parent": parent_tree, "change": ROOT}
        for number, order in enumerate(pair_order(args.pairs), start=1):
            for side in order:
                print(f"pair {number}/{args.pairs}: {side}", flush=True)
                code = run_side(
                    checkouts[side], args.workload, args.seed, args.seconds, outs[side]
                )
                if code != 0:
                    print(f"{side} run exited {code}", file=sys.stderr)
                    return code

    compare = [
        sys.executable,
        "benchmarks/e2e/compare.py",
        str(outs["parent"]),
        str(outs["change"]),
    ]
    for claim in args.claim:
        compare += ["--claim", claim]
    return subprocess.run(compare, cwd=ROOT).returncode


if __name__ == "__main__":
    raise SystemExit(main())
