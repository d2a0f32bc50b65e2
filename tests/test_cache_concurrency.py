"""Cross-process stress tests for the persistent stores.

The contract (``src/repro/runner/atomic.py``): any number of
uncoordinated writers — pool workers and parallel CLI runs sharing one
results directory — may store the *same* key at once, and

* readers never observe a torn or half-written entry,
* duplicate puts are benign (last complete rename wins, content is a
  pure function of the key so winner == every loser),
* a killed writer leaves at most a ``.tmp-*`` orphan, which
  ``sweep_stale_tmp`` reaps and which readers never mistake for data.

These tests hammer :class:`ResultCache` and :class:`TraceStore` from
many forked processes hitting one directory through a start barrier, so
the rename window is actually contended.
"""

from __future__ import annotations

import json
import multiprocessing
import os

from repro.configs import scheme_config
from repro.runner import ResultCache, SweepJob, SweepRunner, report_to_dict
from repro.runner.atomic import TMP_PREFIX, atomic_write_text, sweep_stale_tmp
from repro.runner.jobs import job_key
from repro.runner.trace_store import TraceStore, trace_key
from repro.workloads import get_workload

GPUS = 2
SCALE = 0.05
WRITERS = 8
ROUNDS = 5


def _report_json(report) -> str:
    """A report's bytes: sorted keys, compact separators."""
    return json.dumps(report_to_dict(report), sort_keys=True, separators=(",", ":"))


def _job(seed: int = 1) -> SweepJob:
    return SweepJob(
        spec=get_workload("fir"),
        config=scheme_config("unsecure", n_gpus=GPUS),
        seed=seed,
        scale=SCALE,
    )


def _hammer_cache(root, barrier, writer_id, report):
    """One writer process: contend on a shared key, then write its own."""
    cache = ResultCache(root)
    shared = job_key(_job(seed=1))
    barrier.wait(timeout=60)
    for _ in range(ROUNDS):
        cache.store(shared, report, describe={"writer": writer_id})
    cache.store(job_key(_job(seed=100 + writer_id)), report)


def _hammer_trace_store(root, barrier, _writer_id, _report):
    """One generator process: all race get_or_generate of the same key."""
    store = TraceStore(root)
    spec = get_workload("fir")
    barrier.wait(timeout=60)
    for _ in range(ROUNDS):
        store.get_or_generate(spec, GPUS, 1, SCALE, 8)


def _run_writers(target, root, report):
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(WRITERS)
    procs = [
        ctx.Process(target=target, args=(root, barrier, writer_id, report))
        for writer_id in range(WRITERS)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
    assert all(proc.exitcode == 0 for proc in procs), [p.exitcode for p in procs]


class TestResultCacheConcurrency:
    def test_concurrent_writers_leave_clean_readable_cache(self, tmp_path):
        root = tmp_path / "cache"
        report = SweepRunner(jobs=1, cache=None).run_jobs([_job(seed=1)])[0]
        _run_writers(_hammer_cache, root, report)

        # No torn entries, no tmp orphans, exactly the expected files.
        assert list(root.glob(f"{TMP_PREFIX}*")) == []
        entries = sorted(root.glob("*.json"))
        assert len(entries) == 1 + WRITERS  # shared key + one per writer
        for entry in entries:
            json.loads(entry.read_text())  # every file is complete JSON

        # The contended key reads back byte-identical to the report.
        loaded = ResultCache(root).load(job_key(_job(seed=1)))
        assert loaded is not None
        assert _report_json(loaded) == _report_json(report)

    def test_duplicate_puts_of_same_key_are_benign(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        report = SweepRunner(jobs=1, cache=None).run_jobs([_job()])[0]
        key = job_key(_job())
        for _ in range(3):
            cache.store(key, report)
        assert cache.stores == 3
        assert len(list(cache.root.glob("*.json"))) == 1
        assert _report_json(cache.load(key)) == _report_json(report)

    def test_torn_write_is_a_miss_not_a_crash(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        report = SweepRunner(jobs=1, cache=None).run_jobs([_job()])[0]
        key = job_key(_job())
        cache.store(key, report)
        cache.path_for(key).write_text('{"report": {"truncat')  # simulate a torn legacy write
        assert cache.load(key) is None  # a miss, then overwritten
        cache.store(key, report)
        assert _report_json(cache.load(key)) == _report_json(report)


class TestTraceStoreConcurrency:
    def test_concurrent_generators_converge_on_one_clean_entry(self, tmp_path):
        root = tmp_path / "traces"
        _run_writers(_hammer_trace_store, root, None)

        assert list(root.glob(f"{TMP_PREFIX}*")) == []
        key = trace_key("fir", GPUS, 1, SCALE, 8)
        entries = list(root.glob("*.npz"))
        assert [entry.name for entry in entries] == [f"{key}.npz"]

        # A cold store reads the winner back and it matches a fresh
        # generation exactly (traces are a pure function of the key).
        loaded = TraceStore(root).get(key)
        assert loaded is not None
        fresh, source = TraceStore(tmp_path / "fresh").get_or_generate(
            get_workload("fir"), GPUS, 1, SCALE, 8
        )
        assert source == "generated"
        assert loaded == fresh

    def test_stale_tmp_orphans_are_reaped_on_first_store_write(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        orphan = root / f"{TMP_PREFIX}dead-writer.json"
        orphan.write_text("half a paylo")
        old = 1_000_000_000  # well past any staleness cutoff
        os.utime(orphan, (old, old))
        fresh_tmp = root / f"{TMP_PREFIX}live-writer.json"
        fresh_tmp.write_text("in flight")  # young: presumed live, kept

        report = SweepRunner(jobs=1, cache=None).run_jobs([_job()])[0]
        ResultCache(root).store(job_key(_job()), report)

        assert not orphan.exists()
        assert fresh_tmp.exists()

    def test_sweep_stale_tmp_tolerates_races_and_reports_count(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        for n in range(3):
            path = root / f"{TMP_PREFIX}orphan-{n}"
            path.write_text("x")
            os.utime(path, (1_000_000_000, 1_000_000_000))
        atomic_write_text(root / "real.json", "{}")
        assert sweep_stale_tmp(root) == 3
        assert sweep_stale_tmp(root) == 0
        assert (root / "real.json").exists()
        assert sweep_stale_tmp(tmp_path / "never-created") == 0
