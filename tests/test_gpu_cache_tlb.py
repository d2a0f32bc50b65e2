"""Cache, TLB, and HBM model tests."""

import pytest

from repro.gpu.cache import SetAssociativeCache
from repro.gpu.hbm import HbmModel
from repro.gpu.tlb import Tlb, TlbHierarchy


class TestCache:
    def _small(self):
        # 4 lines of 64 B, 2-way => 2 sets
        return SetAssociativeCache("t", size_bytes=256, assoc=2)

    def test_miss_then_hit_after_fill(self):
        c = self._small()
        assert not c.lookup(0)
        c.fill(0)
        assert c.lookup(0)

    def test_lru_eviction_within_set(self):
        c = self._small()
        # set 0 holds block addresses 0, 128, 256... (2 sets x 64 B lines)
        c.fill(0)
        c.fill(128)
        c.lookup(0)  # 0 is now MRU
        assert c.fill(256) == 128  # the LRU line is the victim
        assert c.lookup(0) and c.lookup(256)
        assert not c.lookup(128)

    def test_fill_returns_victim_address(self):
        c = self._small()
        c.fill(0)
        c.fill(128)
        assert c.fill(256) == 0  # neither touched since its fill: 0 is LRU

    def test_sets_are_independent(self):
        c = self._small()
        # sets 0, 1, 0, 1: two lines each, so nothing is evicted
        assert [c.fill(addr) for addr in (0, 64, 128, 192)] == [None] * 4
        assert all(c.lookup(addr) for addr in (0, 64, 128, 192))

    def test_invalidate_and_page_invalidate(self):
        c = SetAssociativeCache("t", size_bytes=64 * 64, assoc=4)
        for addr in range(0, 4096, 64):
            c.fill(addr)
        dropped = c.invalidate_page(0, 4096)
        assert dropped == 64
        assert not any(c.lookup(addr) for addr in range(0, 4096, 64))
        assert c.invalidate_page(0, 4096) == 0  # already gone

    def test_table3_geometries_accepted(self):
        SetAssociativeCache("l1", 16 * 1024, 4)
        SetAssociativeCache("l2", 2 * 1024 * 1024, 16)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache("t", size_bytes=100, assoc=3)
        with pytest.raises(ValueError):
            SetAssociativeCache("t", size_bytes=0, assoc=1)


class TestTlb:
    def test_lru_capacity(self):
        t = Tlb("t", n_entries=2)
        t.fill(1)
        t.fill(2)
        t.lookup(1)
        t.fill(3)  # evicts 2
        assert t.lookup(1) and t.lookup(3)
        assert not t.lookup(2)

    def test_hierarchy_promotion(self):
        h = TlbHierarchy("g", l1_entries=1, l2_entries=4)
        delay, walk = h.translate(0)  # cold: both miss
        assert walk and delay == h.l1_latency + h.l2_latency
        delay, walk = h.translate(0)  # L1 hit now
        assert not walk and delay == h.l1_latency
        assert h.translate(4096)[1]  # displaces page 0 from 1-entry L1
        delay, walk = h.translate(0)  # L2 hit
        assert not walk and delay == h.l1_latency + h.l2_latency

    def test_shootdown_forces_rewalk(self):
        h = TlbHierarchy("g")
        h.translate(0)
        h.shootdown(0)
        _, walk = h.translate(0)
        assert walk

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Tlb("t", 0)


class TestHbm:
    def test_latency_bound_single_access(self):
        hbm = HbmModel("h", access_latency=160, bytes_per_cycle=512)
        assert hbm.access(now=0, size_bytes=64) == 1 + 160

    def test_bandwidth_serialization_for_bulk(self):
        hbm = HbmModel("h", access_latency=10, bytes_per_cycle=512)
        done1 = hbm.access(0, 4096)  # 8 cycles occupancy
        done2 = hbm.access(0, 4096)
        assert done1 == 8 + 10
        assert done2 == 16 + 10

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            HbmModel("h", access_latency=-1)
        hbm = HbmModel("h")
        with pytest.raises(ValueError):
            hbm.access(0, 0)
