"""Cache, TLB, and HBM model tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.cache import LINE_BYTES, SetAssociativeCache
from repro.gpu.hbm import HbmModel
from repro.gpu.tlb import Tlb, TlbHierarchy
from repro.memory.address_space import BLOCKS_PER_PAGE, PAGE_BYTES


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


class _StampCache:
    """The reference: the stamp-dict LRU cache the tag lists replaced.  Each
    set maps tag -> last-use stamp, and a fill into a full set evicts the
    tag with the smallest stamp."""

    def __init__(self, size_bytes: int, assoc: int) -> None:
        self.assoc = assoc
        self.n_sets = size_bytes // LINE_BYTES // assoc
        self._sets = [dict() for _ in range(self.n_sets)]
        self._stamp = 0

    def lookup(self, address):
        block = address // LINE_BYTES
        cache_set = self._sets[block % self.n_sets]
        tag = block // self.n_sets
        self._stamp += 1
        if tag in cache_set:
            cache_set[tag] = self._stamp
            return True
        return False

    def fill(self, address):
        block = address // LINE_BYTES
        set_idx = block % self.n_sets
        cache_set = self._sets[set_idx]
        tag = block // self.n_sets
        self._stamp += 1
        if tag in cache_set:
            cache_set[tag] = self._stamp
            return None
        victim_addr = None
        if len(cache_set) >= self.assoc:
            victim_tag = min(cache_set, key=cache_set.get)
            del cache_set[victim_tag]
            victim_addr = (victim_tag * self.n_sets + set_idx) * LINE_BYTES
        cache_set[tag] = self._stamp
        return victim_addr

    def invalidate_page(self, page_base, page_bytes):
        first = page_base // LINE_BYTES
        dropped = 0
        for block in range(first, first + page_bytes // LINE_BYTES):
            if self._sets[block % self.n_sets].pop(block // self.n_sets, None) is not None:
                dropped += 1
        return dropped


#: (size_bytes, assoc): 4 sets x 2 ways, and the Table III L1, whose
#: 64 sets are as many as a page has blocks
GEOMETRIES = [(4 * 2 * LINE_BYTES, 2), (BLOCKS_PER_PAGE * 4 * LINE_BYTES, 4)]


def _operations(size_bytes: int, assoc: int):
    """Random calls over two sets (the first and the last), each with one
    tag more than it has ways, so lines hit, refill and get evicted.  Each
    tag sits on a page of its own, so a shootdown drops one tag from both
    sets; one more page holds none.  Fills come twice as often as lookups
    or shootdowns, and the lists are long, so sets fill and evict between
    shootdowns."""
    n_sets = size_bytes // LINE_BYTES // assoc
    tag_stride = max(1, BLOCKS_PER_PAGE // n_sets)
    address = st.builds(
        lambda set_idx, k, offset: (k * tag_stride * n_sets + set_idx) * LINE_BYTES + offset,
        st.sampled_from((0, n_sets - 1)),
        st.integers(0, assoc),
        st.integers(0, LINE_BYTES - 1),
    )
    page_base = st.integers(0, assoc + 1).map(lambda page: page * PAGE_BYTES)
    lookup = st.tuples(st.just("lookup"), address)
    fill = st.tuples(st.just("fill"), address)
    shootdown = st.tuples(st.just("invalidate_page"), page_base)
    return st.lists(st.one_of(lookup, fill, fill, shootdown), min_size=50, max_size=100)


class TestCacheAgainstStampReference:
    @pytest.mark.parametrize(("size_bytes", "assoc"), GEOMETRIES)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_call_answers_like_the_reference(self, size_bytes, assoc, data):
        cache = SetAssociativeCache("t", size_bytes, assoc)
        reference = _StampCache(size_bytes, assoc)
        for op, arg in data.draw(_operations(size_bytes, assoc)):
            args = (arg, PAGE_BYTES) if op == "invalidate_page" else (arg,)
            assert getattr(cache, op)(*args) == getattr(reference, op)(*args), (op, arg)


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
