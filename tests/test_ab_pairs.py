"""The A/B pairs script: which side runs first in each pair, and what it
hands to compare.py."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"


@pytest.fixture(scope="module")
def ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_first_side_alternates_per_pair(ab_pairs):
    assert ab_pairs.pair_order(4) == [
        ("parent", "change"),
        ("change", "parent"),
        ("parent", "change"),
        ("change", "parent"),
    ]


@pytest.mark.parametrize("n_pairs", [1, 5, 10])
def test_every_pair_runs_each_side_once(ab_pairs, n_pairs):
    order = ab_pairs.pair_order(n_pairs)
    assert len(order) == n_pairs
    assert all(sorted(pair) == ["change", "parent"] for pair in order)
    firsts = [pair[0] for pair in order]
    assert firsts.count("parent") - firsts.count("change") in (0, 1)


def test_main_runs_the_pairs_in_order_then_compares(ab_pairs, monkeypatch, tmp_path):
    runs, commands = [], []
    monkeypatch.setattr(ab_pairs, "export", lambda ref, dest: runs.append(("export", ref)))

    def run_side(checkout, workload, seed, seconds, out):
        side = "change" if checkout == ab_pairs.ROOT else "parent"
        runs.append((side, workload, seed, seconds, out.name))
        return 0

    monkeypatch.setattr(ab_pairs, "run_side", run_side)

    class Done:
        returncode = 0

    monkeypatch.setattr(ab_pairs.subprocess, "run", lambda cmd, cwd: commands.append(cmd) or Done)
    code = ab_pairs.main(
        "--parent HEAD~1 --workload high-rpki --seed 2 --pairs 3 --seconds 5 "
        "--tag t --claim high-rpki:events_per_s".split()
    )
    assert code == 0
    assert runs[0] == ("export", "HEAD~1")
    assert [r[0] for r in runs[1:]] == ["parent", "change", "change", "parent", "parent", "change"]
    assert {r[1:4] for r in runs[1:]} == {("high-rpki", 2, 5)}
    assert {r[0]: r[4] for r in runs[1:]} == {
        "parent": "BENCH_t-parent.jsonl",
        "change": "BENCH_t-change.jsonl",
    }
    (compare,) = commands
    assert compare[1] == "benchmarks/e2e/compare.py"
    assert [Path(f).name for f in compare[2:4]] == ["BENCH_t-parent.jsonl", "BENCH_t-change.jsonl"]
    assert compare[4:] == ["--claim", "high-rpki:events_per_s"]


def test_a_failed_run_stops_the_pairs(ab_pairs, monkeypatch):
    monkeypatch.setattr(ab_pairs, "export", lambda ref, dest: None)
    calls = []
    monkeypatch.setattr(ab_pairs, "run_side", lambda *args: calls.append(args) or 1)
    assert ab_pairs.main("--parent HEAD --workload fig21 --pairs 2 --tag t".split()) == 1
    assert len(calls) == 1
