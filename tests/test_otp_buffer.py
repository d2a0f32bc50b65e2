"""PadStream semantics: the hit/partial/miss timing model."""

import dataclasses

import pytest

from repro.secure.otp_buffer import HIT_GRANT, PadOutcome, PadStream

L = 40  # generation latency used throughout


class TestConsume:
    def test_prefilled_pads_hit(self):
        s = PadStream(L, capacity=4)
        for _ in range(4):
            g = s.consume(now=100)
            # burst of 4 against capacity 4: all pads were ready
            assert g.outcome is PadOutcome.HIT
            assert g.wait == 0

    def test_burst_beyond_capacity_waits(self):
        s = PadStream(L, capacity=2)
        assert s.consume(0).outcome is PadOutcome.HIT
        assert s.consume(0).outcome is PadOutcome.HIT
        # everything past the capacity pays one on-demand generation —
        # never more, because the engine is fully pipelined
        for _ in range(5):
            g = s.consume(0)
            assert g.wait == L
            assert g.outcome is PadOutcome.MISS

    def test_partial_when_refill_in_flight(self):
        s = PadStream(L, capacity=1)
        s.consume(0)  # hit; refill ready at 40
        g = s.consume(30)
        assert g.wait == 10
        assert g.outcome is PadOutcome.PARTIAL

    def test_spaced_requests_always_hit(self):
        s = PadStream(L, capacity=1)
        for t in range(0, 500, L + 1):
            assert s.consume(t).outcome is PadOutcome.HIT

    def test_zero_capacity_always_misses_full_latency(self):
        s = PadStream(L, capacity=0)
        for t in (0, 5, 1000):
            g = s.consume(t)
            assert g.outcome is PadOutcome.MISS and g.wait == L

    def test_unprefilled_stream_warms_up(self):
        s = PadStream(L, capacity=2, now=0, prefilled=False)
        g = s.consume(0)
        assert g.outcome is PadOutcome.MISS and g.wait == L
        assert s.consume(200).outcome is PadOutcome.HIT

    def test_desync_costs_full_latency_then_recovers(self):
        s = PadStream(L, capacity=1)
        g = s.consume_desync(10)
        assert g.outcome is PadOutcome.MISS and g.wait == L
        # back-to-back follow-up: the regenerated next pad is ready at 10+L
        g2 = s.consume(10 + L)
        assert g2.outcome is PadOutcome.HIT

    def test_grant_hidden_property(self):
        s = PadStream(L, capacity=1)
        assert s.consume(0).hidden
        assert not s.consume(0).hidden


class TestConsumeBoundaries:
    """Each outcome at its edge, and the grants a stream shares."""

    def test_pad_ready_at_now_is_a_hit_with_no_wait(self):
        s = PadStream(L, capacity=1)
        s.consume(0)  # the refill is ready at L
        g = s.consume(L)
        assert (g.outcome, g.wait) == (PadOutcome.HIT, 0)
        assert g is HIT_GRANT

    def test_one_cycle_short_of_the_latency_is_partial(self):
        s = PadStream(L, capacity=1)
        s.consume(0)  # the refill is ready at L: asked at 1, it is L - 1 late
        g = s.consume(1)
        assert (g.outcome, g.wait) == (PadOutcome.PARTIAL, L - 1)

    @pytest.mark.parametrize("late", [L, L + 1, 2 * L])
    def test_latency_or_more_late_is_a_full_latency_miss(self, late):
        s = PadStream(L, capacity=1, now=100, prefilled=False)  # ready at 100 + L
        g = s.consume(100 + L - late)
        assert (g.outcome, g.wait) == (PadOutcome.MISS, L)
        assert g is s.miss_grant

    def test_empty_stream_misses_with_the_shared_grant(self):
        s = PadStream(L, capacity=0)
        assert s.consume(5) is s.consume(7) is s.miss_grant
        assert (s.miss_grant.outcome, s.miss_grant.wait) == (PadOutcome.MISS, L)

    def test_desync_takes_the_full_latency_and_refills(self):
        s = PadStream(L, capacity=1)
        assert s.consume_desync(10) is s.miss_grant
        assert s.earliest_ready() == 10 + L
        assert s.consume_desync(11) is s.miss_grant  # the refill is stale too

    def test_desync_on_an_empty_stream_still_misses(self):
        s = PadStream(L, capacity=0)
        assert s.consume_desync(3) is s.miss_grant
        assert s.capacity == 0

    def test_shared_grants_are_frozen(self):
        s = PadStream(L, capacity=0)
        for grant in (HIT_GRANT, s.miss_grant):
            with pytest.raises(dataclasses.FrozenInstanceError):
                grant.wait = 1

    def test_outcome_keys_are_the_enum_values(self):
        assert [o.key for o in PadOutcome] == ["hit", "partial", "miss"]
        assert all(o.key == o.value for o in PadOutcome)


class TestCapacityManagement:
    def test_grow_adds_generating_pads(self):
        s = PadStream(L, capacity=0)
        s.grow(now=100, n=2)
        assert s.capacity == 2
        assert s.consume(100).wait == L  # still generating
        assert s.consume(100 + L).wait == 0

    def test_shrink_drops_least_ready_first(self):
        s = PadStream(L, capacity=2)
        s.consume(0)  # one pad now regenerating (ready at 40)
        assert s.shrink(1) == 1
        # the remaining pad is the ready one
        assert s.consume(1).outcome is PadOutcome.HIT

    def test_shrink_more_than_capacity(self):
        s = PadStream(L, capacity=2)
        assert s.shrink(5) == 2
        assert s.capacity == 0

    def test_set_capacity_both_directions(self):
        s = PadStream(L, capacity=4)
        s.set_capacity(0, 1)
        assert s.capacity == 1
        s.set_capacity(0, 6)
        assert s.capacity == 6

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            PadStream(0, 1)
        with pytest.raises(ValueError):
            PadStream(L, -1)
        s = PadStream(L, 1)
        with pytest.raises(ValueError):
            s.grow(0, -1)
        with pytest.raises(ValueError):
            s.shrink(-1)
        with pytest.raises(ValueError):
            s.set_capacity(0, -2)


class TestAccounting:
    def test_earliest_ready_reporting(self):
        s = PadStream(L, capacity=1)
        assert s.earliest_ready() == 0
        s.consume(5)
        assert s.earliest_ready() == 5 + L
        s.shrink(1)
        assert s.earliest_ready() is None
