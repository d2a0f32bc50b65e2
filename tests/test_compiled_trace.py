"""Property tests for the trace format, its store and cross-scheme sharing.

Three contracts are pinned here:

1. **Losslessness** — a `CompiledTrace` survives the `.npz` byte format
   the on-disk store persists exactly, and that format stays what it was
   when lanes were tuples; a stored trace that would load as a different
   trace raises ``ValueError`` instead.
2. **Determinism** — a sweep replaying one shared trace across schemes
   (serially, through the process pool, or via the result cache) produces
   reports byte-identical to generating the trace per cell.
3. **Typed lanes** — a lane holds ``array('q')``/``array('q')``/
   ``array('b')`` streams whatever sequence it was built from.
"""

from __future__ import annotations

import hashlib
import io
from array import array

import numpy as np
import pytest

from repro.configs import scheme_config
from repro.runner import ResultCache, SweepJob, SweepRunner, execute_job, report_to_dict
from repro.runner.trace_store import TraceStore, default_trace_store, trace_key
from repro.workloads import get_workload
from repro.workloads.builder import TraceBuilder
from repro.workloads.compiled import CompiledLane, dump_bytes, load_bytes
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


#: (workload, scale) -> :func:`_layout_digest` of its stored trace (4 GPUs,
#: seed 1, 8 lanes), derived from the tuple-backed lanes that preceded
#: typed arrays.  The lane jitter comes from numpy's ``Generator.integers``,
#: so these also hold that stream fixed, as ``results/digests.txt`` does.
LAYOUT_PINS = {
    ("fir", 0.1): "b6e2b8b4573c33408af18b00fddfef12e1b30882d1479a1a23938c9b2179e247",
    ("relu", 0.1): "f3a3d4944171d278de28e9c7f250fc9c3a16efad38782a8615fef7f13690da13",
    ("allreduce_ring", 0.25): "588d196dad4a9cd2a22f8cee929d8ecfaa9b486e2deb4dc88da185626e0219f5",
}


def _layout_digest(blob: bytes) -> str:
    """SHA-256 over every stored array's key, dtype, shape and bytes.  The
    archive bytes themselves are not hashed: their zip timestamps vary."""
    digest = hashlib.sha256()
    with np.load(io.BytesIO(blob), allow_pickle=False) as data:
        for key in sorted(data.files):
            stored = data[key]
            digest.update(f"{key} {stored.dtype.str} {stored.shape}\n".encode())
            digest.update(stored.tobytes())
    return digest.hexdigest()


class TestStoredLayout:
    @pytest.mark.parametrize(("name", "scale"), sorted(LAYOUT_PINS))
    def test_layout_is_pinned(self, name, scale):
        trace = get_workload(name).generate(n_gpus=4, seed=1, scale=scale)
        assert _layout_digest(dump_bytes(trace)) == LAYOUT_PINS[(name, scale)]


class TestTypedLanes:
    def test_lane_from_tuples_equals_lane_from_arrays(self):
        from_tuples = CompiledLane((3, 0, 7), (64, 128, 4096), (0, 1, 0))
        from_arrays = CompiledLane(
            array("q", [3, 0, 7]), array("q", [64, 128, 4096]), array("b", [0, 1, 0])
        )
        assert from_tuples == from_arrays
        assert from_tuples != CompiledLane((3, 0, 7), (64, 128, 4096), (0, 1, 1))
        for lane in (from_tuples, from_arrays):
            assert [s.typecode for s in (lane.gaps, lane.addrs, lane.writes)] == ["q", "q", "b"]

    def test_built_and_loaded_lanes_are_typed_arrays(self):
        built = _trace("fir")
        for trace in (built, load_bytes(dump_bytes(built))):
            for gpu_trace in trace.gpu_traces.values():
                for lane in gpu_trace.lanes:
                    streams = (lane.gaps, lane.addrs, lane.writes)
                    assert [s.typecode for s in streams] == ["q", "q", "b"]


def _small_blob() -> bytes:
    """One GPU, one lane of three accesses: bounds ``[0, 3]``."""
    b = TraceBuilder("t", n_gpus=1, n_lanes=1)
    arr = b.alloc("a", 16)
    b.burst(1, 0, arr, start_block=0, n_blocks=3, gap=2)
    return dump_bytes(b.build(lane_jitter=0))


def _restored(blob: bytes, **replaced: np.ndarray) -> bytes:
    """``blob`` saved again with some of its stored arrays replaced."""
    with np.load(io.BytesIO(blob), allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files}
    arrays.update(replaced)
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


MALFORMED = {
    # lane bounds over the 3 stored accesses
    "bounds-short": ("g1_bounds", np.array([0, 2], dtype=np.int64)),  # a 2-access lane
    "bounds-past-end": ("g1_bounds", np.array([0, 3, 1], dtype=np.int64)),  # 3 + an empty lane
    "bounds-decrease": ("g1_bounds", np.array([0, 3, 1, 3], dtype=np.int64)),
    "bounds-not-from-0": ("g1_bounds", np.array([1, 3], dtype=np.int64)),
    "bounds-empty": ("g1_bounds", np.array([], dtype=np.int64)),
    # stream values
    "write-7": ("g1_writes", np.array([0, 7, 0], dtype=np.int8)),
    "write-negative": ("g1_writes", np.array([0, -1, 0], dtype=np.int8)),
    "gap-negative": ("g1_gaps", np.array([2, -2, 2], dtype=np.int64)),
    # stream shapes and dtypes
    "unequal-lengths": ("g1_addrs", np.array([0, 64], dtype=np.int64)),
    "gaps-int32": ("g1_gaps", np.array([2, 2, 2], dtype=np.int32)),
    "writes-int64": ("g1_writes", np.array([0, 0, 0], dtype=np.int64)),
    "bounds-int8": ("g1_bounds", np.array([0, 3], dtype=np.int8)),
    "addrs-big-endian": ("g1_addrs", np.array([0, 64, 128], dtype=">i8")),
    "addrs-2d": ("g1_addrs", np.array([[0, 64, 128]], dtype=np.int64)),
}


class TestMalformedStreams:
    """A stored trace that would not load as the trace that was dumped is a
    ``ValueError``, which the store treats as a miss and regenerates."""

    def test_resaved_blob_still_loads(self):
        blob = _small_blob()
        assert load_bytes(_restored(blob)) == load_bytes(blob)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_mismatch_raises_value_error(self, case):
        key, stored = MALFORMED[case]
        with pytest.raises(ValueError):
            load_bytes(_restored(_small_blob(), **{key: stored}))

    def test_store_regenerates_a_malformed_file(self, tmp_path):
        spec = get_workload("fir")
        fresh, _ = TraceStore(tmp_path).get_or_generate(spec, 4, 1, SCALE, 8)
        path = TraceStore(tmp_path).path_for(trace_key("fir", 4, 1, SCALE, 8))
        # bounds [0] over GPU 1's accesses: it would load with no lanes
        path.write_bytes(_restored(path.read_bytes(), g1_bounds=np.zeros(1, dtype=np.int64)))
        again, source = TraceStore(tmp_path).get_or_generate(spec, 4, 1, SCALE, 8)
        assert source == "generated"
        assert again == fresh


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
