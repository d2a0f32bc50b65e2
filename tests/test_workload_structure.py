"""Structural assertions on individual workload generators.

The experiments rely on each generator exhibiting its benchmark's
communication signature; these tests pin those signatures directly on the
generated traces (no simulation).
"""

import pytest

from repro.memory.address_space import page_of
from repro.workloads import get_workload


def owners_touched(trace, gpu):
    """Set of initial owners of the pages GPU ``gpu`` touches remotely."""
    owners = set()
    for lane in trace.gpu_traces[gpu].lanes:
        for addr in lane.addrs:
            owner = trace.initial_owners[page_of(addr)]
            if owner != gpu:
                owners.add(owner)
    return owners


def remote_fraction(trace, gpu):
    total = remote = 0
    for lane in trace.gpu_traces[gpu].lanes:
        for addr in lane.addrs:
            total += 1
            if trace.initial_owners[page_of(addr)] != gpu:
                remote += 1
    return remote / total if total else 0.0


class TestHighRpkiWorkloads:
    def test_relu_reads_only_cpu_and_self(self):
        trace = get_workload("relu").generate(4, seed=1, scale=0.2)
        assert owners_touched(trace, 1) == {0}  # all remote traffic to host

    def test_mt_touches_every_peer(self):
        trace = get_workload("mt").generate(4, seed=1, scale=0.2)
        assert owners_touched(trace, 1) >= {2, 3, 4}

    def test_mt_is_remote_dominated(self):
        trace = get_workload("mt").generate(4, seed=1, scale=0.2)
        assert remote_fraction(trace, 1) > 0.5

    def test_spmv_gathers_from_all_gpus(self):
        trace = get_workload("spmv").generate(4, seed=1, scale=0.2)
        assert owners_touched(trace, 2) >= {1, 3, 4}

    def test_pagerank_has_skewed_popularity(self):
        trace = get_workload("pr").generate(4, seed=1, scale=0.3)
        counts = {}
        for lane in trace.gpu_traces[1].lanes:
            for addr in lane.addrs:
                counts[addr] = counts.get(addr, 0) + 1
        top = sorted(counts.values(), reverse=True)
        # Zipf gathers: the hottest block is touched far more than the median
        assert top[0] >= 5 * top[len(top) // 2]


class TestPhaseStructure:
    def test_mm_destination_rotates_across_phases(self):
        """mm must read different B owners in different execution regions."""
        trace = get_workload("mm").generate(4, seed=1, scale=0.3)
        lane = trace.gpu_traces[1].lanes[0]
        owners_sequence = [
            trace.initial_owners[page_of(addr)] for addr in lane.addrs
        ]
        remote = [o for o in owners_sequence if o != 1]
        first_half = set(remote[: len(remote) // 4])
        last_half = set(remote[-len(remote) // 4 :])
        assert first_half != last_half  # the hot source moves over time

    def test_fft_changes_partner_between_stages(self):
        trace = get_workload("fft").generate(4, seed=1, scale=0.3)
        remote_owners = []
        for lane in trace.gpu_traces[1].lanes:
            for addr in lane.addrs:
                o = trace.initial_owners[page_of(addr)]
                if o != 1:
                    remote_owners.append(o)
        assert len(set(remote_owners)) >= 2  # at least two butterfly partners

    def test_stencil_only_talks_to_ring_neighbours(self):
        trace = get_workload("st").generate(4, seed=1, scale=0.2)
        assert owners_touched(trace, 2) <= {1, 3}


class TestLowRpkiWorkloads:
    @pytest.mark.parametrize("name", ["aes", "fir", "floyd"])
    def test_low_class_is_mostly_local(self, name):
        trace = get_workload(name).generate(4, seed=1, scale=0.2)
        assert remote_fraction(trace, 1) < 0.35

    def test_low_class_has_bigger_gaps_than_high(self):
        low = get_workload("aes").generate(4, seed=1, scale=0.2)
        high = get_workload("relu").generate(4, seed=1, scale=0.2)

        def mean_gap(trace):
            gaps = [gap for lane in trace.gpu_traces[1].lanes for gap in lane.gaps]
            return sum(gaps) / len(gaps)

        assert mean_gap(low) > 3 * mean_gap(high)


class TestPinning:
    @pytest.mark.parametrize("name", ["relu", "mt", "syr2k", "aes", "fir"])
    def test_streaming_inputs_are_pinned(self, name):
        trace = get_workload(name).generate(4, seed=1, scale=0.2)
        assert trace.pinned_pages

    @pytest.mark.parametrize("name", ["mm", "km", "floyd"])
    def test_migration_workloads_leave_pages_migratable(self, name):
        trace = get_workload(name).generate(4, seed=1, scale=0.2)
        touched = set()
        for gt in trace.gpu_traces.values():
            for lane in gt.lanes:
                touched.update(page_of(addr) for addr in lane.addrs)
        assert touched - trace.pinned_pages  # some pages can move
