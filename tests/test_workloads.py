"""Workload generator and registry tests."""

import pytest

from repro.memory.address_space import PAGE_BYTES, Placement, page_of
from repro.workloads import (
    all_workloads,
    classify_rpki,
    get_workload,
    workloads_in_class,
)
from repro.workloads.builder import TraceBuilder
from repro.workloads.compiled import CompiledGpuTrace, CompiledLane, CompiledTrace
from repro.workloads.rpki import rpki_of


class TestRegistry:
    def test_all_seventeen_workloads_present(self):
        specs = all_workloads()
        assert len(specs) == 17
        assert len({s.name for s in specs}) == 17
        assert len({s.abbr for s in specs}) == 17

    def test_table4_class_counts(self):
        assert len(workloads_in_class("high")) == 5
        assert len(workloads_in_class("medium")) == 9
        assert len(workloads_in_class("low")) == 3

    def test_lookup_by_name_and_abbr(self):
        assert get_workload("matrixtranspose").abbr == "mt"
        assert get_workload("mt").name == "matrixtranspose"
        assert get_workload("ges").name == "gesummv"

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            get_workload("doom")
        with pytest.raises(ValueError):
            workloads_in_class("ultra")

    def test_suites_match_table4(self):
        assert get_workload("relu").suite == "DNNMark"
        assert get_workload("spmv").suite == "SHOC"
        assert get_workload("pr").suite == "Hetero-Mark"
        assert get_workload("syr2k").suite == "Polybench"
        assert get_workload("floyd").suite == "AMD APP SDK"


class TestGeneration:
    @pytest.mark.parametrize("spec", all_workloads(), ids=lambda s: s.abbr)
    def test_every_workload_generates_valid_traces(self, spec):
        trace = spec.generate(n_gpus=4, seed=1, scale=0.1)
        trace.validate()
        assert trace.total_accesses > 0
        assert all(t.instructions > 0 for t in trace.gpu_traces.values())
        assert set(trace.gpu_traces) <= {1, 2, 3, 4}

    @pytest.mark.parametrize("n_gpus", [1, 2, 3, 8])
    def test_generation_scales_with_gpu_count(self, n_gpus):
        trace = get_workload("stencil2d").generate(n_gpus=n_gpus, seed=1, scale=0.1)
        trace.validate()
        assert len(trace.gpu_traces) == n_gpus

    def test_generation_is_deterministic(self):
        t1 = get_workload("pagerank").generate(4, seed=5, scale=0.1)
        t2 = get_workload("pagerank").generate(4, seed=5, scale=0.1)
        assert t1.gpu_traces[1].lanes[0].addrs == t2.gpu_traces[1].lanes[0].addrs

    def test_scale_grows_traces(self):
        small = get_workload("fft").generate(4, seed=1, scale=0.1)
        large = get_workload("fft").generate(4, seed=1, scale=0.5)
        assert large.total_accesses > small.total_accesses

    def test_relu_input_is_cpu_owned_and_pinned(self):
        trace = get_workload("relu").generate(4, seed=1, scale=0.1)
        cpu_pages = [p for p, owner in trace.initial_owners.items() if owner == 0]
        assert cpu_pages
        assert set(cpu_pages) <= trace.pinned_pages


class TestTraceBuilder:
    def test_compute_accumulates_into_next_access(self):
        b = TraceBuilder("t", n_gpus=1, n_lanes=1)
        arr = b.alloc("a", 16)
        b.compute(1, 0, 100)
        b.access(1, 0, arr.block_addr(0), gap=5)
        trace = b.build(lane_jitter=0)
        assert trace.gpu_traces[1].lanes[0].gaps[0] == 105

    def test_burst_strides(self):
        b = TraceBuilder("t", n_gpus=1, n_lanes=1)
        arr = b.alloc("a", 256)
        b.burst(1, 0, arr, start_block=0, n_blocks=3, stride=2)
        addrs = b.build(lane_jitter=0).gpu_traces[1].lanes[0].addrs
        assert list(addrs) == [arr.block_addr(0), arr.block_addr(2), arr.block_addr(4)]

    def test_blocked_range_partitions_fully(self):
        b = TraceBuilder("t", n_gpus=3, n_lanes=1)
        arr = b.alloc("a", 9 * 64, Placement.BLOCKED)
        covered = 0
        for g in b.gpus():
            first, n = b.blocked_range(arr, g)
            covered += n
            # every block in the range must belong to g
            for blk in (first, first + n - 1):
                page = page_of(arr.block_addr(blk))
                assert b.space.initial_owners()[page] == g
        assert covered == arr.n_blocks

    def test_lane_jitter_offsets_first_access(self):
        b = TraceBuilder("t", n_gpus=1, n_lanes=4, seed=1)
        arr = b.alloc("a", 64)
        for lane in range(4):
            b.access(1, lane, arr.block_addr(lane))
        trace = b.build(lane_jitter=100)
        gaps = [lane.gaps[0] for lane in trace.gpu_traces[1].lanes]
        assert any(g > 0 for g in gaps)
        assert all(0 <= g < 100 for g in gaps)

    def test_pinned_alloc_records_pages(self):
        b = TraceBuilder("t", n_gpus=2, n_lanes=1)
        arr = b.alloc("pinned", 2 * PAGE_BYTES // 64, pinned=True, placement=Placement.OWNER, owner=0)
        b.access(1, 0, arr.block_addr(0))
        trace = b.build()
        assert page_of(arr.base) in trace.pinned_pages

    def test_validation_rejects_unmapped_pages(self):
        lane = CompiledLane((0,), (999 * PAGE_BYTES,), (0,))
        trace = CompiledTrace(
            name="broken",
            gpu_traces={1: CompiledGpuTrace((lane,), instructions=1)},
            pinned_pages=frozenset(),
            initial_owners={0: 1},
        )
        with pytest.raises(ValueError):
            trace.validate()

    def test_invalid_builder_arguments(self):
        with pytest.raises(ValueError):
            TraceBuilder("t", n_gpus=0)
        with pytest.raises(ValueError):
            TraceBuilder("t", n_gpus=1, n_lanes=0)
        b = TraceBuilder("t", n_gpus=1)
        with pytest.raises(ValueError):
            b.compute(1, 0, -5)


class TestRpki:
    def test_classification_thresholds(self):
        assert classify_rpki(500.0) == "high"
        assert classify_rpki(50.0) == "medium"
        assert classify_rpki(5.0) == "low"

    def test_boundaries(self):
        from repro.workloads.rpki import HIGH_THRESHOLD, MEDIUM_THRESHOLD

        assert classify_rpki(HIGH_THRESHOLD) == "high"
        assert classify_rpki(MEDIUM_THRESHOLD) == "medium"

    def test_rpki_of(self):
        assert rpki_of(500, 1_000_000) == pytest.approx(0.5)
        assert rpki_of(10, 0) == 0.0

    def test_negative_rpki_rejected(self):
        with pytest.raises(ValueError):
            classify_rpki(-1.0)

    def test_access_validation(self):
        b = TraceBuilder("t", n_gpus=1, n_lanes=1)
        arr = b.alloc("a", 16)
        with pytest.raises(ValueError, match="gap must be non-negative"):
            b.access(1, 0, arr.block_addr(0), gap=-1)
        with pytest.raises(ValueError, match="address must be non-negative"):
            b.access(1, 0, -5)
        b.access(1, 0, arr.block_addr(0), write=True)
        assert list(b.build(lane_jitter=0).gpu_traces[1].lanes[0].writes) == [1]
