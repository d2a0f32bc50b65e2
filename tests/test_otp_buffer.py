"""PadStream semantics: the wait a pad acquisition returns.

The Figs 10/22 bucket of each wait is the scheme's to decide; see
``TestOutcomeBuckets`` in ``tests/test_schemes.py``.
"""

import pytest

from repro.secure.otp_buffer import PadStream

L = 40  # generation latency used throughout


class TestConsume:
    def test_prefilled_pads_hit(self):
        s = PadStream(L, capacity=4)
        for _ in range(4):
            # burst of 4 against capacity 4: all pads were ready
            assert s.consume(now=100) == 0

    def test_burst_beyond_capacity_waits(self):
        s = PadStream(L, capacity=2)
        assert s.consume(0) == 0
        assert s.consume(0) == 0
        # everything past the capacity pays one on-demand generation —
        # never more, because the engine is fully pipelined
        for _ in range(5):
            assert s.consume(0) == L

    def test_partial_when_refill_in_flight(self):
        s = PadStream(L, capacity=1)
        s.consume(0)  # hit; refill ready at 40
        assert s.consume(30) == 10

    def test_spaced_requests_always_hit(self):
        s = PadStream(L, capacity=1)
        for t in range(0, 500, L + 1):
            assert s.consume(t) == 0

    def test_zero_capacity_always_misses_full_latency(self):
        s = PadStream(L, capacity=0)
        for t in (0, 5, 1000):
            assert s.consume(t) == L

    def test_unprefilled_stream_warms_up(self):
        s = PadStream(L, capacity=0)
        s.grow(now=0, n=2)  # both pads start generating at 0
        assert s.consume(0) == L
        assert s.consume(200) == 0

    def test_desync_costs_full_latency_then_recovers(self):
        s = PadStream(L, capacity=1)
        assert s.consume_desync(10) == L
        # back-to-back follow-up: the regenerated next pad is ready at 10+L
        assert s.consume(10 + L) == 0

    def test_grant_hidden_property(self):
        # a granted pad hides its generation latency exactly when the
        # message waits 0 cycles for it
        s = PadStream(L, capacity=1)
        assert s.consume(0) == 0
        assert s.consume(0) == L


class TestConsumeBoundaries:
    """Each wait at its edge."""

    def test_pad_ready_at_now_is_a_hit_with_no_wait(self):
        s = PadStream(L, capacity=1)
        s.consume(0)  # the refill is ready at L
        assert s.consume(L) == 0

    def test_one_cycle_short_of_the_latency_is_partial(self):
        s = PadStream(L, capacity=1)
        s.consume(0)  # the refill is ready at L: asked at 1, it is L - 1 late
        assert s.consume(1) == L - 1

    @pytest.mark.parametrize("late", [L, L + 1, 2 * L])
    def test_latency_or_more_late_is_a_full_latency_miss(self, late):
        s = PadStream(L, capacity=0)
        s.grow(now=100, n=1)  # ready at 100 + L
        assert s.consume(100 + L - late) == L

    def test_desync_takes_the_full_latency_and_refills(self):
        s = PadStream(L, capacity=1)
        assert s.consume_desync(10) == L
        assert s.consume_desync(11) == L  # the refill is stale too
        # the slot regenerates from the latest desync: ready at 11 + L
        assert s.consume(11 + L - 1) == 1

    def test_desync_on_an_empty_stream_still_misses(self):
        s = PadStream(L, capacity=0)
        assert s.consume_desync(3) == L
        assert s.capacity == 0


class TestCapacityManagement:
    def test_grow_adds_generating_pads(self):
        s = PadStream(L, capacity=0)
        s.grow(now=100, n=2)
        assert s.capacity == 2
        assert s.consume(100) == L  # still generating
        assert s.consume(100 + L) == 0

    def test_shrink_drops_least_ready_first(self):
        s = PadStream(L, capacity=2)
        s.consume(0)  # one pad now regenerating (ready at 40)
        assert s.shrink(1) == 1
        # the remaining pad is the ready one
        assert s.consume(1) == 0

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
