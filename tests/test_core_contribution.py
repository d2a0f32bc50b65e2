"""Tests for the paper's core mechanisms: EWMA, the dynamic OTP allocator
(Formulas 1-4), and the metadata batching controller."""

import pytest

from repro.configs import MetadataConfig
from repro.core.batching import BatchingController
from repro.core.dynamic_allocator import DynamicOtpAllocator, largest_remainder
from repro.core.ewma import Ewma
from repro.secure.metadata import MetadataAccountant


def _block_meta(grant) -> int:
    """The metadata bytes the secure channel attaches to a batched block."""
    return MetadataAccountant(MetadataConfig()).batched_block_meta(
        grant.opens_batch, grant.closes_batch
    )


class TestEwma:
    def test_update_formula(self):
        e = Ewma(rate=0.9, initial=0.5)
        e.update(1.0)
        assert e.value == pytest.approx(0.1 * 0.5 + 0.9 * 1.0)

    def test_high_rate_tracks_current(self):
        fast = Ewma(0.9, initial=0.0)
        slow = Ewma(0.1, initial=0.0)
        for _ in range(3):
            fast.update(1.0)
            slow.update(1.0)
        assert fast.value > slow.value

    def test_converges_to_constant_input(self):
        e = Ewma(0.5, initial=0.0)
        for _ in range(50):
            e.update(0.7)
        assert e.value == pytest.approx(0.7, abs=1e-6)

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            Ewma(rate=1.5)
        with pytest.raises(ValueError):
            Ewma(rate=-0.1)


class TestLargestRemainder:
    def test_preserves_total(self):
        shares = largest_remainder(32, [0.61, 0.39])
        assert sum(shares) == 32

    def test_proportionality(self):
        shares = largest_remainder(10, [3.0, 1.0])
        assert shares == [8, 2]

    def test_zero_weights_fall_back_to_even(self):
        assert largest_remainder(4, [0.0, 0.0]) == [2, 2]

    def test_empty_and_invalid(self):
        assert largest_remainder(5, []) == []
        with pytest.raises(ValueError):
            largest_remainder(-1, [1.0])
        with pytest.raises(ValueError):
            largest_remainder(1, [-0.5])

    def test_equal_weight_ties_break_by_ascending_index(self):
        # Contract: largest remainder, then largest weight, then ascending
        # index.  On a full tie the spare units go to the lowest indices.
        assert largest_remainder(10, [1.0, 1.0, 1.0]) == [4, 3, 3]
        assert largest_remainder(11, [1.0, 1.0, 1.0]) == [4, 4, 3]
        assert largest_remainder(7, [1.0] * 5) == [2, 2, 1, 1, 1]

    def test_equal_remainder_ties_prefer_larger_weight(self):
        # Remainders tie at 0.5/0.5; the heavier peer gets the spare unit
        # even though it sits at the higher index.
        assert largest_remainder(2, [1.0, 3.0]) == [0, 2]
        assert largest_remainder(3, [1.0, 1.0]) == [2, 1]

    def test_tie_break_is_stable_under_appended_peers(self):
        # Adding a zero-weight peer must not reshuffle existing shares.
        base = largest_remainder(9, [1.0, 1.0, 1.0])
        extended = largest_remainder(9, [1.0, 1.0, 1.0, 0.0])
        assert extended[:3] == base and extended[3] == 0


class TestDynamicAllocator:
    def _alloc(self, pool=32, peers=(0, 2, 3, 4)):
        return DynamicOtpAllocator(list(peers), total_pool=pool, interval=1000)

    def test_send_heavy_traffic_shifts_pool_to_send(self):
        alloc = self._alloc()
        for _ in range(90):
            alloc.record_send(2)
        for _ in range(10):
            alloc.record_recv(3)
        plan = alloc.adjust()
        assert plan.send_total > plan.recv_total
        plan.validate(32)

    def test_hot_peer_gets_more_pads(self):
        alloc = self._alloc()
        for _ in range(80):
            alloc.record_send(2)
        for _ in range(20):
            alloc.record_send(3)
        plan = alloc.adjust()
        assert plan.send_per_peer[2] > plan.send_per_peer[3]
        assert plan.send_per_peer[3] >= plan.send_per_peer[4]

    def test_counters_reset_each_interval(self):
        alloc = self._alloc()
        alloc.record_send(2)
        alloc.adjust()
        assert alloc.interval_send_total == 0

    def test_empty_interval_keeps_weights(self):
        alloc = self._alloc()
        before = alloc.send_weight.value
        plan = alloc.adjust()
        assert alloc.send_weight.value == before
        plan.validate(32)

    def test_maybe_adjust_honours_interval(self):
        alloc = self._alloc()
        alloc.record_send(2)
        assert alloc.maybe_adjust(now=999) is None
        assert alloc.maybe_adjust(now=1000) is not None
        assert alloc.interval_start == 1000
        assert alloc.maybe_adjust(now=1500) is None

    def test_maybe_adjust_skips_whole_empty_gaps(self):
        alloc = self._alloc()
        alloc.maybe_adjust(now=5500)
        assert alloc.interval_start == 5000
        assert alloc.idle_intervals == 4

    def test_multi_interval_gap_folds_counts_exactly_once(self):
        # Monitoring is tick-driven, so counts pending across a >2-interval
        # gap all belong to the first elapsed interval; the gap's empty
        # intervals must not decay the EWMAs (they saw no traffic).
        alloc = DynamicOtpAllocator([2, 3], total_pool=8, alpha=0.9, interval=1000)
        for _ in range(60):
            alloc.record_send(2)
        for _ in range(40):
            alloc.record_recv(3)
        plan = alloc.maybe_adjust(now=3500)  # 3 intervals elapsed at once
        assert plan is not None
        assert alloc.adjustments == 1
        # exactly one Formula-1 fold: S_1 = 0.1*0.5 + 0.9*0.6
        assert alloc.send_weight.value == pytest.approx(0.1 * 0.5 + 0.9 * 0.6)
        assert alloc.interval_start == 3000
        assert alloc.idle_intervals == 2
        assert alloc.interval_send_total == 0  # counters reset by the fold

    def test_gap_fold_matches_per_interval_iteration(self):
        # The single fold must be byte-identical to naively adjusting once
        # per elapsed interval (empty intervals leave the EWMAs untouched).
        def load(alloc):
            for _ in range(60):
                alloc.record_send(2)
            for _ in range(40):
                alloc.record_recv(3)

        folded = DynamicOtpAllocator([2, 3], total_pool=8, interval=1000)
        load(folded)
        folded.maybe_adjust(now=4500)

        stepped = DynamicOtpAllocator([2, 3], total_pool=8, interval=1000)
        load(stepped)
        for now in (1000, 2000, 3000, 4000):
            stepped.maybe_adjust(now=now)

        assert folded.send_weight.value == stepped.send_weight.value
        assert {p: w.value for p, w in folded.send_peer_weight.items()} == {
            p: w.value for p, w in stepped.send_peer_weight.items()
        }
        assert {p: w.value for p, w in folded.recv_peer_weight.items()} == {
            p: w.value for p, w in stepped.recv_peer_weight.items()
        }

    def test_paper_formula_1(self):
        # One interval with SReq=75, RReq=25 from S_0=0.5, alpha=0.9:
        # S_1 = 0.1*0.5 + 0.9*0.75 = 0.725
        alloc = DynamicOtpAllocator([2], total_pool=8, alpha=0.9, beta=0.5)
        for _ in range(75):
            alloc.record_send(2)
        for _ in range(25):
            alloc.record_recv(2)
        alloc.adjust()
        assert alloc.send_weight.value == pytest.approx(0.725)

    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicOtpAllocator([], 8)
        with pytest.raises(ValueError):
            DynamicOtpAllocator([1], -1)
        with pytest.raises(ValueError):
            DynamicOtpAllocator([1], 8, interval=0)


class TestBatchingController:
    def _controller(self, batch_size=4):
        return BatchingController(batch_size)

    def test_first_block_opens_with_length_byte(self):
        c = self._controller()
        g = c.add_block(peer=2)
        assert g.opens_batch and not g.closes_batch
        md = MetadataConfig()
        assert _block_meta(g) == md.batched_block_meta_bytes + md.batch_len_bytes

    def test_middle_blocks_carry_ctr_and_id_only(self):
        c = self._controller()
        c.add_block(2)
        g = c.add_block(2)
        assert _block_meta(g) == MetadataConfig().batched_block_meta_bytes

    def test_batch_closes_at_size_with_mac(self):
        c = self._controller(batch_size=3)
        c.add_block(2)
        c.add_block(2)
        g = c.add_block(2)
        assert g.closes_batch and g.batch_size == 3
        md = MetadataConfig()
        assert _block_meta(g) == md.batched_block_meta_bytes + md.msg_mac_bytes
        assert c.batches_closed_full == 1
        # next block opens a new batch
        assert c.add_block(2).opens_batch

    def test_batches_are_per_peer(self):
        c = self._controller(batch_size=2)
        c.add_block(2)
        g = c.add_block(3)
        assert g.opens_batch
        # both batches stayed open: each peer's second block closes its own
        assert [c.add_block(p).closes_batch for p in (2, 3)] == [True, True]
        assert c.batches_opened == 2

    def test_timeout_close(self):
        c = self._controller(batch_size=16)
        g = c.add_block(2)
        closed = c.timeout_close(2, g.batch_id)
        assert closed == 1
        assert c.batches_closed_timeout == 1
        assert c.add_block(2).opens_batch  # nothing left open toward 2

    def test_stale_timeout_ignored(self):
        c = self._controller(batch_size=2)
        g1 = c.add_block(2)
        c.add_block(2)  # closes batch g1
        assert c.timeout_close(2, g1.batch_id) is None

    def test_stale_timeout_is_a_counted_noop(self):
        # The size-close vs. timeout-close race: the timer loses and must
        # change nothing — no close counter, no batch state, only the
        # stale_timeouts observability counter moves.
        c = self._controller(batch_size=2)
        g1 = c.add_block(2)
        c.add_block(2)  # full close wins the race
        full, timeout = c.batches_closed_full, c.batches_closed_timeout
        assert c.timeout_close(2, g1.batch_id) is None
        assert c.stale_timeouts == 1
        assert (c.batches_closed_full, c.batches_closed_timeout) == (full, timeout)
        assert c.add_block(2).opens_batch  # the stale timer opened nothing

    def test_stale_timeout_never_touches_the_successor_batch(self):
        # Interleaving: batch A full-closes, batch B opens toward the same
        # peer, then A's stale timer fires.  B must stay open and intact,
        # and B's *own* timer must still close it normally afterwards.
        c = self._controller(batch_size=2)
        ga = c.add_block(2)
        c.add_block(2)  # A closes full
        gb = c.add_block(2)  # B opens
        assert c.timeout_close(2, ga.batch_id) is None  # A's timer, stale
        assert c.stale_timeouts == 1
        # B's timer, live: it closes B, still open with its one block
        assert c.timeout_close(2, gb.batch_id) == 1
        assert c.batches_closed_timeout == 1
        # ...and B's id is now stale too: a duplicate timer is a no-op.
        assert c.timeout_close(2, gb.batch_id) is None
        assert c.stale_timeouts == 2

    def test_batch_ids_never_reused_across_peers_or_batches(self):
        c = self._controller(batch_size=1)
        seen = {c.add_block(p).batch_id for p in (2, 3, 2, 4, 3)}
        assert len(seen) == 5

    def test_batched_meta_is_smaller_than_conventional(self):
        c = self._controller(batch_size=16)
        md = MetadataConfig()
        total_batched = sum(_block_meta(c.add_block(2)) for _ in range(16))
        total_conventional = 16 * md.per_message_meta_bytes
        assert total_batched < total_conventional

    def test_validation(self):
        with pytest.raises(ValueError):
            self._controller(batch_size=0)
