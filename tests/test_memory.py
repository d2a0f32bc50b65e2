"""Unified-memory substrate tests."""

import pytest

from repro.interconnect.packet import PacketKind
from repro.memory.address_space import (
    AddressSpace,
    BLOCKS_PER_PAGE,
    PAGE_BYTES,
    Placement,
    block_of,
    page_of,
)
from repro.memory.directory import BlockDirectory
from repro.memory.migration import AccessCounterMigrationPolicy, MigrationDecision
from repro.memory.page_table import PageTable
from repro.workloads.compiled import CompiledGpuTrace
from tests.test_gpu_device import host_cpu, make_gpu, reads


class TestAddressSpace:
    def test_page_and_block_math(self):
        assert page_of(0) == 0
        assert page_of(PAGE_BYTES) == 1
        assert block_of(64) == 1
        assert BLOCKS_PER_PAGE == 64

    def test_alloc_owner_placement(self):
        space = AddressSpace(gpu_nodes=[1, 2])
        arr = space.alloc("input", 3 * PAGE_BYTES, Placement.OWNER, owner=0)
        first = page_of(arr.base)
        owners = space.initial_owners()
        assert all(owners[first + i] == 0 for i in range(3))

    def test_alloc_interleaved_placement(self):
        space = AddressSpace(gpu_nodes=[1, 2, 3])
        arr = space.alloc("a", 6 * PAGE_BYTES, Placement.INTERLEAVED)
        first = page_of(arr.base)
        owners = [space.initial_owners()[first + i] for i in range(6)]
        assert owners == [1, 2, 3, 1, 2, 3]

    def test_alloc_blocked_placement(self):
        space = AddressSpace(gpu_nodes=[1, 2])
        arr = space.alloc("a", 4 * PAGE_BYTES, Placement.BLOCKED)
        first = page_of(arr.base)
        owners = [space.initial_owners()[first + i] for i in range(4)]
        assert owners == [1, 1, 2, 2]

    def test_allocations_do_not_overlap(self):
        space = AddressSpace(gpu_nodes=[1])
        a = space.alloc("a", PAGE_BYTES + 1, Placement.INTERLEAVED)
        b = space.alloc("b", PAGE_BYTES, Placement.INTERLEAVED)
        assert b.base >= a.base + 2 * PAGE_BYTES  # a occupies 2 pages

    def test_array_addressing(self):
        space = AddressSpace(gpu_nodes=[1])
        arr = space.alloc("a", PAGE_BYTES, Placement.INTERLEAVED)
        assert arr.addr(0) == arr.base
        assert arr.block_addr(2) == arr.base + 128
        with pytest.raises(IndexError):
            arr.addr(PAGE_BYTES)

    def test_duplicate_and_invalid_allocs(self):
        space = AddressSpace(gpu_nodes=[1])
        space.alloc("a", 64, Placement.INTERLEAVED)
        with pytest.raises(ValueError):
            space.alloc("a", 64, Placement.INTERLEAVED)
        with pytest.raises(ValueError):
            space.alloc("b", 0, Placement.INTERLEAVED)
        with pytest.raises(ValueError):
            space.alloc("c", 64, Placement.OWNER)  # owner missing

    def test_unallocated_page_raises(self):
        space = AddressSpace(gpu_nodes=[1])
        space.alloc("a", PAGE_BYTES, Placement.INTERLEAVED)
        assert 999999 not in space.initial_owners()
        # the machine's page table starts from these owners
        with pytest.raises(KeyError):
            PageTable(space.initial_owners()).owner(999999)


class TestPageTable:
    def test_owner_and_migrate(self):
        pt = PageTable({10: 1, 11: 2})
        assert pt.owner(10) == 1
        old = pt.migrate(10, 3)
        assert old == 1
        assert pt.owner(10) == 3
        assert pt.migrations == 1

    def test_migrate_to_same_owner_rejected(self):
        pt = PageTable({10: 1})
        with pytest.raises(ValueError):
            pt.migrate(10, 1)

    def test_access_counts_and_reset_on_migration(self):
        pt = PageTable({5: 1})
        assert pt.record_access(5, 2) == 1
        assert pt.record_access(5, 2) == 2
        assert pt.record_access(5, 3) == 1
        pt.migrate(5, 2)
        assert pt.record_access(5, 2) == 1  # the count restarted

    def test_unmapped_page_raises(self):
        pt = PageTable({})
        with pytest.raises(KeyError):
            pt.owner(1)

    def test_pages_owned_by(self):
        pt = PageTable({1: 1, 2: 2, 3: 1})
        assert [p for p in (1, 2, 3) if pt.owner(p) == 1] == [1, 3]
        pt.migrate(2, 1)
        assert [p for p in (1, 2, 3) if pt.owner(p) == 1] == [1, 2, 3]
        assert len(pt) == 3


class TestMigrationPolicy:
    def _policy(self, threshold=3):
        pt = PageTable({7: 1})
        return AccessCounterMigrationPolicy(pt, threshold=threshold), pt

    def test_direct_access_below_threshold(self):
        policy, _ = self._policy(threshold=3)
        assert policy.on_remote_access(7, 2) is MigrationDecision.DIRECT_ACCESS
        assert policy.on_remote_access(7, 2) is MigrationDecision.DIRECT_ACCESS
        assert policy.on_remote_access(7, 2) is MigrationDecision.MIGRATE

    def test_counters_are_per_accessor(self):
        policy, _ = self._policy(threshold=2)
        assert policy.on_remote_access(7, 2) is MigrationDecision.DIRECT_ACCESS
        assert policy.on_remote_access(7, 3) is MigrationDecision.DIRECT_ACCESS
        assert policy.on_remote_access(7, 2) is MigrationDecision.MIGRATE

    def test_pinned_pages_never_migrate(self):
        policy, _ = self._policy(threshold=1)
        policy.pin(7)
        for _ in range(5):
            assert policy.on_remote_access(7, 2) is MigrationDecision.DIRECT_ACCESS

    def test_pin_array_pages(self):
        # the machine pins each page of a pinned array, one pin() per page
        policy, _ = self._policy(threshold=3)
        for page in range(100, 103):
            policy.pin(page)
        for _ in range(5):
            assert policy.on_remote_access(101, 2) is MigrationDecision.DIRECT_ACCESS
        decisions = [policy.on_remote_access(103, 2) for _ in range(3)]
        assert decisions[-1] is MigrationDecision.MIGRATE

    def test_commit_updates_page_table(self):
        policy, pt = self._policy(threshold=1)
        assert policy.on_remote_access(7, 2) is MigrationDecision.MIGRATE
        old = policy.commit_migration(7, 2)
        assert old == 1 and pt.owner(7) == 2

    def test_threshold_validation(self):
        pt = PageTable({})
        with pytest.raises(ValueError):
            AccessCounterMigrationPolicy(pt, threshold=0)


class TestBlockDirectory:
    def test_first_request_issues_later_merge(self):
        d = BlockDirectory()
        seen = []
        assert d.request(100, lambda t: seen.append(("a", t))) is True
        assert d.request(100, lambda t: seen.append(("b", t))) is False
        assert d.in_flight(100)
        assert d.complete(100, 55) == 2
        assert seen == [("a", 55), ("b", 55)]
        assert not d.in_flight(100)

    def test_distinct_nodes_do_not_merge(self, sim, fake_transport, calls):
        # Each GPU owns its directory: two GPUs missing on the same remote
        # block at the same cycle each issue their own fetch.
        directory_requests = calls(BlockDirectory, "request")
        gpus = [make_gpu(sim, fake_transport, {0: 0}, node=n)[0] for n in (1, 2)]
        host_cpu(sim, fake_transport)
        for gpu in gpus:
            gpu.load_trace(CompiledGpuTrace((reads([0], gap=0),), instructions=10))
            gpu.start()
        sim.run()
        requests = [p.src for p in fake_transport.sent if p.kind is PacketKind.READ_REQ]
        assert sorted(requests) == [1, 2]
        # one request per directory, and it issued its fetch
        issued = [
            [must_issue for d, _, must_issue in directory_requests if d is g.directory]
            for g in gpus
        ]
        assert issued == [[True], [True]]
        assert all(g.directory.pending_count() == 0 for g in gpus)

    def test_complete_without_request_raises(self):
        d = BlockDirectory()
        with pytest.raises(KeyError):
            d.complete(5, 0)

    def test_counters(self):
        # two requests issue a fetch, one merges into block 1's
        d = BlockDirectory()
        must_issue = [d.request(block, lambda t: None) for block in (1, 1, 2)]
        assert must_issue == [True, False, True]
        assert d.pending_count() == 2
