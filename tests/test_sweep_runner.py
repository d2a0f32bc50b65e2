"""Tests for the parallel sweep runner and the persistent result cache.

The load-bearing property is determinism: a sweep must produce
bit-identical :class:`SimulationReport` metrics whether its cells ran
serially, across worker processes, or came back from the on-disk cache.
Everything the figures read goes through ``report_to_dict``, so dict
equality is the equality that matters.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.configs import scheme_config
from repro.experiments.common import ExperimentRunner
from repro.runner import (
    ResultCache,
    SweepJob,
    SweepRunner,
    default_cache,
    execute_job,
    job_key,
    report_from_dict,
    report_to_dict,
)
from repro.runner.serialize import series_to_dict
from repro.workloads import get_workload
from repro.workloads.synthetic import synthetic_spec

SCALE = 0.1


def _grid(seed: int = 1) -> list[SweepJob]:
    """A small representative sweep: 2 workloads x 3 schemes."""
    jobs = []
    for name in ("fir", "matrixmultiplication"):
        spec = get_workload(name)
        for scheme in ("unsecure", "private", "batching"):
            jobs.append(
                SweepJob(spec=spec, config=scheme_config(scheme), seed=seed, scale=SCALE)
            )
    return jobs


class TestDeterminism:
    def test_serial_parallel_cached_bit_identical(self, tmp_path, four_cpus):
        grid = _grid()
        serial = SweepRunner(jobs=1).run_jobs(grid)

        par_runner = SweepRunner(jobs=4)
        parallel = par_runner.run_jobs(grid)
        assert par_runner.stats.parallel_runs == len(grid)
        assert par_runner.stats.mode == "parallel"

        cache = ResultCache(tmp_path / "cache")
        SweepRunner(jobs=1, cache=cache).run_jobs(grid)  # cold: populates
        warm_runner = SweepRunner(jobs=1, cache=cache)
        cached = warm_runner.run_jobs(grid)
        assert warm_runner.stats.cache_hits == len(grid)
        assert warm_runner.stats.serial_runs == 0

        for s, p, c in zip(serial, parallel, cached):
            assert report_to_dict(s) == report_to_dict(p) == report_to_dict(c)

    def test_experiment_runner_parallel_matches_serial(self):
        workloads = [get_workload("fir")]
        configs = {"private": scheme_config("private")}
        r_serial = ExperimentRunner(
            scale=SCALE, workloads=workloads, jobs=1, use_cache=False
        ).sweep(configs)
        r_par = ExperimentRunner(
            scale=SCALE, workloads=workloads, jobs=4, use_cache=False
        ).sweep(configs)
        assert r_serial[0].slowdown("private") == r_par[0].slowdown("private")
        assert report_to_dict(r_serial[0].baseline) == report_to_dict(r_par[0].baseline)


class TestCache:
    def test_roundtrip_is_exact(self, tmp_path):
        job = _grid()[2]  # a secured scheme: exercises OTP stats and ACK counts
        report = execute_job(job)
        cache = ResultCache(tmp_path)
        key = job_key(job)
        cache.store(key, report)
        loaded = cache.load(key)
        assert report_to_dict(loaded) == report_to_dict(report)
        # integer keys survive the JSON round trip
        assert loaded.per_gpu_finish == report.per_gpu_finish
        assert set(loaded.timelines) == set(report.timelines)
        for node, series in report.timelines.items():
            assert series_to_dict(loaded.timelines[node]) == series_to_dict(series)

    def test_changed_config_field_misses(self, tmp_path):
        spec = get_workload("fir")
        base = scheme_config("private")
        job = SweepJob(spec=spec, config=base, seed=1, scale=SCALE)
        changed = SweepJob(
            spec=spec,
            config=base.with_security(aes_gcm_latency=base.security.aes_gcm_latency + 1),
            seed=1,
            scale=SCALE,
        )
        assert job_key(job) != job_key(changed)

        cache = ResultCache(tmp_path)
        runner = SweepRunner(jobs=1, cache=cache)
        runner.run_jobs([job])
        runner2 = SweepRunner(jobs=1, cache=cache)
        runner2.run_jobs([changed])
        assert runner2.stats.cache_hits == 0
        assert runner2.stats.serial_runs == 1

    def test_seed_and_scale_change_the_key(self):
        spec = get_workload("fir")
        cfg = scheme_config("private")
        k = job_key(SweepJob(spec=spec, config=cfg, seed=1, scale=SCALE))
        assert k != job_key(SweepJob(spec=spec, config=cfg, seed=2, scale=SCALE))
        assert k != job_key(SweepJob(spec=spec, config=cfg, seed=1, scale=SCALE * 2))

    def test_corrupt_entry_is_a_miss_and_heals(self, tmp_path):
        job = _grid()[0]
        cache = ResultCache(tmp_path)
        key = job_key(job)
        cache.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_text("{not json")
        runner = SweepRunner(jobs=1, cache=cache)
        report = runner.run_jobs([job])[0]
        assert runner.stats.cache_hits == 0
        # the entry was rewritten and now loads cleanly
        assert report_to_dict(cache.load(key)) == report_to_dict(report)

    def test_unwritable_cache_root_does_not_lose_results(self):
        job = _grid()[0]
        cache = ResultCache("/proc/definitely-not-writable/cache")
        runner = SweepRunner(jobs=1, cache=cache)
        report = runner.run_jobs([job])[0]  # must not raise
        assert report.workload == "fir"
        assert cache.stores == 0

    def test_non_registry_spec_is_not_persisted(self, tmp_path):
        spec = synthetic_spec("custom-synth", remote_fraction=0.5)
        job = SweepJob(spec=spec, config=scheme_config("unsecure"), seed=1, scale=SCALE)
        assert job_key(job) is None
        cache = ResultCache(tmp_path)
        SweepRunner(jobs=1, cache=cache).run_jobs([job])
        assert list(cache.root.glob("*.json")) == []

    def test_default_cache_respects_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert default_cache() is None
        assert default_cache(use_cache=True) is not None  # explicit arg wins
        monkeypatch.delenv("REPRO_NO_CACHE")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envdir"))
        cache = default_cache()
        assert cache is not None and cache.root == tmp_path / "envdir"


_KEYS = (
    "import repro\n"
    "from repro.configs import scheme_config\n"
    "from repro.runner import SweepJob, job_key, trace_key\n"
    "from repro.workloads import get_workload\n"
    "job = SweepJob(get_workload('fir'), scheme_config('private'), seed=1, scale=0.1)\n"
    "print(repro.__file__, job_key(job), trace_key('fir', 4, 1, 0.1, 8))\n"
)


class TestSourceSalt:
    """Both keys hash the simulation source, so an edited simulator stops
    finding the reports and traces of the old one.  The salt is computed
    once per process, so each probe runs in a fresh interpreter against a
    copy of the package."""

    @staticmethod
    def _keys(root: Path) -> tuple[str, str]:
        env = {**os.environ, "PYTHONPATH": str(root)}
        out = subprocess.run(
            [sys.executable, "-c", _KEYS],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        module, job, trace = out.stdout.split()
        assert Path(module).is_relative_to(root)
        return job, trace

    def test_simulation_source_changes_both_keys_front_ends_change_neither(self, tmp_path):
        package = tmp_path / "repro"
        shutil.copytree(
            Path(repro.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__")
        )
        base = self._keys(tmp_path)

        with open(package / "cli.py", "a") as f:
            f.write("\n# a front-end edit\n")
        assert self._keys(tmp_path) == base

        with open(package / "secure" / "channel.py", "a") as f:
            f.write("\n# a simulator edit\n")
        job, trace = self._keys(tmp_path)
        assert job != base[0] and trace != base[1]


_SERIAL_SWEEP = (
    "import sys\n"
    "from repro.configs import scheme_config\n"
    "from repro.runner import SweepJob, SweepRunner\n"
    "from repro.runner.trace_store import TraceStore\n"
    "from repro.workloads import get_workload\n"
    "jobs = [SweepJob(get_workload('fir'), scheme_config(s), seed=1, scale=0.1)\n"
    "        for s in ('unsecure', 'private')]\n"
    "runner = SweepRunner(jobs=1, trace_store=TraceStore(None))\n"
    "runner.run_jobs(jobs)\n"
    "print(runner.stats.serial_runs,\n"
    "      [m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])\n"
)


class TestSerialImports:
    def test_serial_sweep_loads_no_process_pool(self):
        """A ``jobs=1`` sweep, the ``REPRO_JOBS`` default, never imports the
        pool stack; the pool tests above cover ``jobs>1``.  A fresh
        interpreter, because any earlier test may have loaded it here."""
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", _SERIAL_SWEEP],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        assert out.stdout.split() == ["2", "[]"]


class TestSweepMechanics:
    def test_duplicate_jobs_deduplicate_but_keep_order(self):
        spec = get_workload("fir")
        a = SweepJob(spec=spec, config=scheme_config("unsecure"), seed=1, scale=SCALE)
        b = SweepJob(spec=spec, config=scheme_config("private"), seed=1, scale=SCALE)
        runner = SweepRunner(jobs=1)
        reports = runner.run_jobs([a, b, a, b, a])
        assert runner.stats.deduplicated == 3
        assert runner.stats.serial_runs == 2
        assert [r.scheme for r in reports] == [
            "unsecure", "private", "unsecure", "private", "unsecure",
        ]
        assert reports[0] is reports[2] is reports[4]

    def test_serial_retry_recovers_from_transient_failure(self, monkeypatch):
        import repro.runner.sweep as sweep_mod

        job = _grid()[0]
        real = sweep_mod.execute_job
        calls = {"n": 0}

        def flaky(j, **kw):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return real(j, **kw)

        monkeypatch.setattr(sweep_mod, "execute_job", flaky)
        runner = SweepRunner(jobs=1)
        report = runner.run_jobs([job])[0]
        assert report.workload == job.spec.name
        assert runner.stats.retries == 1

    def test_serial_failure_exhausts_retries(self, monkeypatch):
        import repro.runner.sweep as sweep_mod
        from repro.runner import SweepError

        errors = []

        def persistent(j, **kw):
            errors.append(RuntimeError(f"boom {len(errors)}"))
            raise errors[-1]

        monkeypatch.setattr(sweep_mod, "execute_job", persistent)
        runner = SweepRunner(jobs=1)
        with pytest.raises(SweepError) as excinfo:
            runner.run_jobs([_grid()[0]])
        assert len(errors) == sweep_mod.RETRIES + 1
        assert excinfo.value.__cause__ is errors[-1]
        assert runner.stats.retries == sweep_mod.RETRIES

    def test_memo_identity_preserved_within_runner(self):
        runner = ExperimentRunner(
            scale=SCALE, workloads=[get_workload("fir")], use_cache=False
        )
        spec = runner.workloads[0]
        cfg = scheme_config("unsecure")
        assert runner.run(spec, cfg) is runner.run(spec, cfg)

    def test_cache_file_is_valid_json_with_description(self, tmp_path):
        job = _grid()[0]
        cache = ResultCache(tmp_path)
        SweepRunner(jobs=1, cache=cache).run_jobs([job])
        (path,) = cache.root.glob("*.json")
        data = json.loads(path.read_text())
        assert data["describe"]["job"].startswith("fir/")
        assert report_from_dict(data["report"]).workload == "fir"


def _failing_worker(store_root, payload):
    """Stand-in pool worker that fails every chunk (see TestFailingWorker)."""
    raise RuntimeError("worker failed")


class TestFailingWorker:
    def test_failed_pool_cells_are_rescued_serially(self, monkeypatch, four_cpus):
        """Every cell whose pool chunk fails is re-run serially in the
        parent: the sweep still returns the reports ``execute_job`` gives,
        and counts each rescued cell as a fallback."""
        import multiprocessing

        import repro.runner.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "_worker", _failing_worker)
        jobs = _grid()[:4]  # two trace keys, so two pool chunks
        expected = [report_to_dict(execute_job(job)) for job in jobs]

        runner = SweepRunner(jobs=2)
        reports = runner.run_jobs(jobs)

        assert runner.stats.mode == "parallel"
        assert [report_to_dict(r) for r in reports] == expected
        assert runner.stats.fallbacks == len(jobs)
        assert runner.stats.parallel_runs == 0
        assert runner.stats.serial_runs == len(jobs)
        assert not multiprocessing.active_children()  # the pool was shut down


class TestRetryBackoff:
    """Retries run back to back; a cell that never succeeds is not rescued."""

    def test_exhausted_cell_lands_unrescued(self, monkeypatch):
        import repro.runner.sweep as sweep_mod
        from repro.runner import SweepError

        errors = []

        def persistent(j, **kw):
            errors.append(ValueError("persistent"))
            raise errors[-1]

        monkeypatch.setattr(sweep_mod, "execute_job", persistent)
        job = _grid()[0]
        runner = SweepRunner(jobs=1)
        attempts = sweep_mod.RETRIES + 1
        with pytest.raises(SweepError, match=f"failed after {attempts} attempt") as excinfo:
            runner.run_jobs([job])
        assert job.describe() in str(excinfo.value)
        assert [type(e) for e in errors] == [ValueError] * attempts
        assert excinfo.value.__cause__ is errors[-1]
        assert runner.stats.retries == sweep_mod.RETRIES
        assert runner.stats.serial_runs == 0


class TestCpuAffinity:
    """``resolve_jobs`` must respect the scheduler affinity mask, not the
    host's raw core count — a cgroup-limited runner (a CI container or
    a pod) oversubscribes its pool otherwise."""

    def test_available_cpus_reads_affinity_mask(self, monkeypatch):
        import repro.runner.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert sweep_mod.available_cpus() == 3

    def test_available_cpus_falls_back_to_cpu_count(self, monkeypatch):
        import repro.runner.sweep as sweep_mod

        monkeypatch.delattr(sweep_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 7)
        assert sweep_mod.available_cpus() == 7

    def test_resolve_jobs_capped_by_affinity(self, monkeypatch):
        import repro.runner.sweep as sweep_mod
        from repro.runner import resolve_jobs

        monkeypatch.setattr(sweep_mod.os, "sched_getaffinity", lambda pid: {0, 1})
        assert resolve_jobs(8) == 2   # explicit request capped at the mask
        assert resolve_jobs(1) == 1   # requests inside the mask untouched
        monkeypatch.setenv("REPRO_JOBS", "16")
        assert resolve_jobs(None) == 2  # env-derived counts capped too

    def test_resolve_jobs_single_cpu_affinity_forces_one_worker(self, monkeypatch):
        import repro.runner.sweep as sweep_mod
        from repro.runner import resolve_jobs

        monkeypatch.setattr(sweep_mod.os, "sched_getaffinity", lambda pid: {5})
        assert resolve_jobs(4) == 1

    def test_auto_mode_goes_serial_under_single_cpu_affinity(self, monkeypatch):
        import repro.runner.sweep as sweep_mod

        # 8 host cores visible, but the mask allows one: auto must pick
        # serial — pool spawn on an oversubscribed core only loses time.
        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(sweep_mod.os, "sched_getaffinity", lambda pid: {0})
        runner = SweepRunner(jobs=4)
        assert runner._resolve_mode(n_workers=4, n_pending=10) == "serial"

    def test_auto_mode_parallel_with_wide_affinity(self, monkeypatch):
        import repro.runner.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        runner = SweepRunner(jobs=4)
        assert runner._resolve_mode(n_workers=4, n_pending=10) == "parallel"
