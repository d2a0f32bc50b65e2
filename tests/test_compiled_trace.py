"""Property tests for the trace format, its store and cross-scheme sharing.

Two contracts are pinned here:

1. **Losslessness** — a `CompiledTrace` survives the `.npz` byte format
   the on-disk store persists exactly.
2. **Determinism** — a sweep replaying one shared trace across schemes
   (serially, through the process pool, or via the result cache) produces
   reports byte-identical to generating the trace per cell.
"""

from __future__ import annotations

import pytest

from repro.configs import scheme_config
from repro.runner import ResultCache, SweepJob, SweepRunner, execute_job, report_to_dict
from repro.runner.trace_store import TraceStore, default_trace_store, trace_key
from repro.workloads import get_workload
from repro.workloads.compiled import dump_bytes, load_bytes
from repro.workloads.synthetic import synthetic_spec

SCALE = 0.1
WORKLOADS = ("fir", "matrixmultiplication", "pagerank")


def _trace(name: str, seed: int = 1):
    return get_workload(name).generate(n_gpus=4, seed=seed, scale=SCALE)


class TestLosslessRoundTrip:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_npz_bytes_round_trip(self, name):
        trace = _trace(name)
        blob = dump_bytes(trace)
        assert load_bytes(blob) == trace

    def test_truncated_blob_raises_value_error(self):
        blob = dump_bytes(_trace("fir"))
        with pytest.raises(ValueError):
            load_bytes(blob[: len(blob) // 2])


class TestTraceStore:
    def test_memo_then_disk_hits(self, tmp_path):
        spec = get_workload("fir")
        store = TraceStore(tmp_path)
        first, src1 = store.get_or_generate(spec, 4, 1, SCALE, 8)
        again, src2 = store.get_or_generate(spec, 4, 1, SCALE, 8)
        assert (src1, src2) == ("generated", "memo")
        assert again is first  # literally the same shared object
        # a fresh store over the same root loads from disk
        cold = TraceStore(tmp_path)
        loaded, src3 = cold.get_or_generate(spec, 4, 1, SCALE, 8)
        assert src3 == "disk"
        assert loaded == first

    def test_key_covers_every_generation_parameter(self):
        base = trace_key("fir", 4, 1, SCALE, 8)
        assert base != trace_key("mis", 4, 1, SCALE, 8)
        assert base != trace_key("fir", 2, 1, SCALE, 8)
        assert base != trace_key("fir", 4, 2, SCALE, 8)
        assert base != trace_key("fir", 4, 1, SCALE * 2, 8)
        assert base != trace_key("fir", 4, 1, SCALE, 4)

    def test_non_registry_spec_generates_without_keys(self, tmp_path):
        spec = synthetic_spec("custom-synth", remote_fraction=0.5)
        store = TraceStore(tmp_path)
        _, source = store.get_or_generate(spec, 4, 1, SCALE, 8)
        assert source == "generated"
        assert list(tmp_path.glob("*.npz")) == []

    def test_memo_only_store_has_no_disk_layer(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_TRACE_STORE", "1")
        store = default_trace_store()
        assert store.root is None
        spec = get_workload("fir")
        _, src1 = store.get_or_generate(spec, 4, 1, SCALE, 8)
        _, src2 = store.get_or_generate(spec, 4, 1, SCALE, 8)
        assert (src1, src2) == ("generated", "memo")


class TestSharedTraceDeterminism:
    """Shared-trace sweeps must be bit-identical to per-cell generation."""

    def _grid(self):
        jobs = []
        for name in ("fir", "matrixmultiplication"):
            spec = get_workload(name)
            for scheme in ("unsecure", "private", "batching"):
                jobs.append(
                    SweepJob(spec=spec, config=scheme_config(scheme), seed=1, scale=SCALE)
                )
        return jobs

    def test_shared_serial_parallel_cached_all_match_per_cell(self, tmp_path, four_cpus):
        grid = self._grid()
        # ground truth: per-cell generation, no store, no sharing
        expected = [report_to_dict(execute_job(job)) for job in grid]

        shared = SweepRunner(jobs=1, trace_store=TraceStore(tmp_path / "ts"))
        serial = shared.run_jobs(grid)
        assert [report_to_dict(r) for r in serial] == expected
        # 2 workloads generate; the other 4 cells reuse the memo
        assert shared.stats.trace_reused == 4
        assert shared.stats.mode == "serial"

        par = SweepRunner(jobs=4, trace_store=TraceStore(tmp_path / "ts"))
        parallel = par.run_jobs(grid)
        assert [report_to_dict(r) for r in parallel] == expected
        assert par.stats.mode == "parallel"

        cache = ResultCache(tmp_path / "cache")
        priming = SweepRunner(jobs=1, cache=cache, trace_store=TraceStore(tmp_path / "ts"))
        priming.run_jobs(grid)
        # a fresh store over the same root loads both traces from disk
        assert priming.stats.trace_store_hits == 2
        warm =SweepRunner(jobs=1, cache=cache, trace_store=TraceStore(tmp_path / "ts"))
        cached = warm.run_jobs(grid)
        assert warm.stats.cache_hits == len(grid)
        assert [report_to_dict(r) for r in cached] == expected

    def test_execute_job_trace_paths_agree(self, tmp_path):
        job = self._grid()[2]  # a secured scheme
        fresh = report_to_dict(execute_job(job))
        store = TraceStore(tmp_path)
        via_store = report_to_dict(execute_job(job, trace_store=store))
        trace, _ = store.get_or_generate(
            job.spec, job.config.n_gpus, job.seed, job.scale, job.n_lanes
        )
        via_shared = report_to_dict(execute_job(job, trace=trace))
        assert fresh == via_store == via_shared

    def test_parallel_workers_share_parent_store_root(self, tmp_path, four_cpus):
        """Pool workers must persist into the parent's store root — not a
        default root of their own (which would litter ``results/``)."""
        grid = self._grid()
        root = tmp_path / "par-ts"
        runner = SweepRunner(jobs=2, trace_store=TraceStore(root))
        runner.run_jobs(grid)
        assert runner.stats.parallel_runs == len(grid)
        assert list(root.glob("*.npz"))

    def test_auto_mode_goes_serial_on_small_grids(self):
        grid = self._grid()[:2]
        runner = SweepRunner(jobs=4)
        runner.run_jobs(grid)
        assert runner.stats.mode == "serial"
