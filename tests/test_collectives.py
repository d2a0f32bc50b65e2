"""Property tests for the collective-communication trace generators.

Three families of invariants (no simulation, pure trace inspection):

* **conservation** — ring schedules move exactly the volume the algorithm
  promises: a reduce-scatter + all-gather pair moves ``2(N-1)/N`` of the
  message per GPU, all of it remote;
* **peer structure** — each collective talks to exactly the peers its
  topology names (fixed ring neighbour, tree children, every peer, grid
  neighbours, only the root);
* **reproducibility** — generators are deterministic in (n_gpus, seed,
  scale) and valid across GPU counts, including the degenerate 1-GPU case.

Plus registry-facing checks: the ``collective`` class resolves by name and
abbreviation without disturbing the 17-entry Table IV set.
"""

import pytest

from repro.memory.address_space import page_of
from repro.workloads import (
    all_collectives,
    all_workloads,
    get_workload,
    training_step,
    workloads_in_class,
)
from repro.workloads.collectives import DEFAULT_CHUNK_BLOCKS, CollectiveBuilder

COLLECTIVE_NAMES = [spec.name for spec in all_collectives()]


def flat_accesses(trace, gpu):
    """``gpu``'s accesses as ``(gap, addr, write)`` triples, lane by lane."""
    return [
        access
        for lane in trace.gpu_traces[gpu].lanes
        for access in zip(lane.gaps, lane.addrs, lane.writes)
    ]


def remote_reads(trace, gpu):
    """Blocks GPU ``gpu`` reads from pages another node owns."""
    return sum(
        1
        for _gap, addr, write in flat_accesses(trace, gpu)
        if not write and trace.initial_owners[page_of(addr)] != gpu
    )


def remote_owners(trace, gpu):
    """Initial owners of the pages ``gpu`` touches remotely."""
    owners = set()
    for lane in trace.gpu_traces[gpu].lanes:
        for addr in lane.addrs:
            owner = trace.initial_owners[page_of(addr)]
            if owner != gpu:
                owners.add(owner)
    return owners


class TestConservation:
    """Ring schedules move exactly the algorithmically required volume."""

    @pytest.mark.parametrize("n_gpus", [2, 4, 8])
    def test_reduce_scatter_all_gather_moves_2_nm1_over_n(self, n_gpus):
        message = n_gpus * 3 * DEFAULT_CHUNK_BLOCKS
        b = CollectiveBuilder("t", n_gpus)
        shards = b.alloc_shards("x", message)
        b.reduce_scatter_ring(shards)
        b.all_gather_ring(shards)
        trace = b.build()
        expected = 2 * (n_gpus - 1) * message // n_gpus
        for g in range(1, n_gpus + 1):
            assert remote_reads(trace, g) == expected

    def test_reduce_scatter_alone_moves_half_of_the_pair(self):
        n_gpus, message = 4, 4 * 2 * DEFAULT_CHUNK_BLOCKS
        b = CollectiveBuilder("t", n_gpus)
        shards = b.alloc_shards("x", message)
        b.reduce_scatter_ring(shards)
        trace = b.build()
        for g in range(1, n_gpus + 1):
            assert remote_reads(trace, g) == (n_gpus - 1) * message // n_gpus

    def test_all_gather_direct_moves_full_peer_shards(self):
        n_gpus, shard = 4, 2 * DEFAULT_CHUNK_BLOCKS
        b = CollectiveBuilder("t", n_gpus)
        shards = b.alloc_shards("x", shard)
        b.all_gather_direct(shards)
        trace = b.build()
        for g in range(1, n_gpus + 1):
            assert remote_reads(trace, g) == (n_gpus - 1) * shard

    def test_tree_moves_full_message_per_edge(self):
        n_gpus, message = 4, 2 * DEFAULT_CHUNK_BLOCKS
        b = CollectiveBuilder("t", n_gpus)
        shards = b.alloc_shards("x", message)
        b.tree_reduce(shards)
        trace = b.build()
        # N-1 tree edges, each carrying the full message to the parent.
        # (Pure leaves issue no accesses in a bare reduce, so iterate over
        # the GPUs the built trace actually contains.)
        total = sum(remote_reads(trace, g) for g in trace.gpu_traces)
        assert total == (n_gpus - 1) * message

    def test_transfers_are_dense_chunks(self):
        """Remote reads arrive as gap-0 bursts — the batching-friendly shape.

        Only the first block of a chunk may carry a gap (the accumulated
        barrier/reduction cycles); the other 15 of every 16-block chunk
        must be back-to-back.
        """
        b = CollectiveBuilder("t", 4)
        shards = b.alloc_shards("x", 4 * DEFAULT_CHUNK_BLOCKS)
        b.reduce_scatter_ring(shards)
        trace = b.build()
        for g in range(1, 5):
            gaps = [
                gap for gap, addr, write in flat_accesses(trace, g)
                if not write and trace.initial_owners[page_of(addr)] != g
            ]
            assert gaps
            dense = sum(1 for gap in gaps if gap == 0)
            assert dense >= len(gaps) * (DEFAULT_CHUNK_BLOCKS - 1) // DEFAULT_CHUNK_BLOCKS


class TestPeerStructure:
    def test_ring_talks_only_to_left_neighbour(self):
        trace = get_workload("allreduce_ring").generate(4, seed=1, scale=0.25)
        # rank r pulls from rank r-1: GPU 3 (rank 2) only from GPU 2.
        assert remote_owners(trace, 3) == {2}
        assert remote_owners(trace, 1) == {4}  # rank 0 wraps to rank N-1

    def test_allgather_rotates_over_every_peer(self):
        trace = get_workload("allgather").generate(4, seed=1, scale=0.25)
        for g in range(1, 5):
            assert remote_owners(trace, g) == {1, 2, 3, 4} - {g}

    def test_allgather_destination_drifts_per_step(self):
        """The hot recv peer must change over the trace, not interleave."""
        trace = get_workload("allgather").generate(4, seed=1, scale=0.25)
        owners = [
            trace.initial_owners[page_of(addr)]
            for _gap, addr, _write in flat_accesses(trace, 1)
            if trace.initial_owners[page_of(addr)] != 1
        ]
        # Drop repeats: the sequence visits peers in contiguous runs.
        transitions = [o for i, o in enumerate(owners) if i == 0 or owners[i - 1] != o]
        assert len(transitions) >= 6  # several distinct single-peer phases

    def test_broadcast_non_roots_read_only_the_root(self):
        trace = get_workload("broadcast").generate(4, seed=1, scale=0.25)
        root = 1
        assert remote_owners(trace, root) == set()
        for g in range(2, 5):
            assert remote_owners(trace, g) == {root}

    def test_tree_root_pulls_only_from_children(self):
        trace = get_workload("allreduce_tree").generate(4, seed=1, scale=0.25)
        # Binary heap on ranks 0..3: root (GPU 1) has children ranks 1, 2.
        assert remote_owners(trace, 1) == {2, 3}

    def test_halo_talks_only_to_grid_neighbours(self):
        trace = get_workload("halo2d").generate(4, seed=1, scale=0.25)
        b = CollectiveBuilder("probe", 4)
        for g in range(1, 5):
            allowed = set(b.grid_neighbors(g).values())
            assert remote_owners(trace, g) <= allowed
            assert remote_owners(trace, g)  # every tile has >= 1 neighbour


class TestReproducibility:
    @pytest.mark.parametrize("name", COLLECTIVE_NAMES)
    def test_same_parameters_same_trace(self, name):
        spec = get_workload(name)
        a = spec.generate(4, seed=3, scale=0.25)
        b = spec.generate(4, seed=3, scale=0.25)
        for g in a.gpu_traces:
            assert flat_accesses(a, g) == flat_accesses(b, g)
        assert a.initial_owners == b.initial_owners
        assert a.pinned_pages == b.pinned_pages

    @pytest.mark.parametrize("name", COLLECTIVE_NAMES)
    @pytest.mark.parametrize("n_gpus", [1, 2, 4, 8])
    def test_valid_across_gpu_counts(self, name, n_gpus):
        trace = get_workload(name).generate(n_gpus, seed=1, scale=0.25)
        assert set(trace.gpu_traces) == set(range(1, n_gpus + 1))
        for g in trace.gpu_traces:
            assert trace.gpu_traces[g].n_accesses > 0  # warmup keeps 1-GPU alive

    @pytest.mark.parametrize("name", COLLECTIVE_NAMES)
    def test_scale_grows_the_trace(self, name):
        spec = get_workload(name)
        small = spec.generate(4, seed=1, scale=0.25)
        large = spec.generate(4, seed=1, scale=1.0)
        assert large.total_accesses > small.total_accesses

    def test_training_step_composite(self):
        trace = training_step(4, seed=1, scale=0.25)
        assert trace.name == "training_step"
        # Gradient buffers are pinned; the collective can't be solved by
        # page migration.
        assert trace.pinned_pages
        # The ring synchronization gives every GPU remote traffic to its
        # left neighbour; host ingest adds owner-0 reads for GPUs 2..4.
        assert remote_owners(trace, 3) >= {0, 2}


class TestRegistry:
    def test_collectives_resolve_by_name_and_abbr(self):
        for spec in all_collectives():
            assert get_workload(spec.name) is spec
            assert get_workload(spec.abbr) is spec

    def test_collective_class_membership(self):
        names = {spec.name for spec in workloads_in_class("collective")}
        assert names == set(COLLECTIVE_NAMES)
        assert len(COLLECTIVE_NAMES) == 6

    def test_table_iv_is_untouched(self):
        table_iv = all_workloads()
        assert len(table_iv) == 17
        assert not {s.name for s in table_iv} & set(COLLECTIVE_NAMES)

    def test_collectives_use_the_nccl_suite(self):
        for spec in all_collectives():
            assert spec.suite == "NCCL"
            assert spec.rpki_class == "collective"
