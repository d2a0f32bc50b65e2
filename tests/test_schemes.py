"""OTP buffer-management scheme behaviour tests."""

import random

import pytest

from repro.configs import SecurityConfig
from repro.core.dynamic_allocator import DynamicOtpAllocator
from repro.secure.schemes import build_scheme
from repro.secure.schemes.cached import CachedScheme
from repro.secure.schemes.dynamic import DynamicScheme
from repro.secure.schemes.private import PrivateScheme
from repro.secure.schemes.shared import SharedScheme

PEERS = [0, 2, 3, 4]  # node 1's peers in a 4-GPU system
L = 40


def make(scheme, multiplier=4, **sec_overrides):
    sec = SecurityConfig(
        scheme=scheme, otp_multiplier=multiplier, aes_gcm_latency=L, **sec_overrides
    )
    return build_scheme(scheme, node=1, peers=PEERS, security=sec)


class TestBuildScheme:
    def test_unsecure_returns_none(self):
        assert make("unsecure") is None

    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError):
            make("quantum")

    def test_types(self):
        assert isinstance(make("private"), PrivateScheme)
        assert isinstance(make("shared"), SharedScheme)
        assert isinstance(make("cached"), CachedScheme)
        assert isinstance(make("dynamic"), DynamicScheme)


class TestPrivate:
    def test_pool_size_matches_paper(self):
        # 4 peers x 2 directions x 4 = 32 entries per processor (§III-A)
        assert make("private").pool_size() == 32

    def test_spaced_sends_hit(self):
        s = make("private")
        for t in (0, 100, 200):
            assert s.acquire_send(2, t) == (0, True)

    def test_receiver_always_synced(self):
        _, synced = make("private").acquire_send(2, 0)
        assert synced

    def test_burst_beyond_multiplier_misses(self):
        s = make("private", multiplier=2)
        waits = [s.acquire_send(2, 0)[0] for _ in range(4)]
        assert waits == [0, 0, L, L]
        assert s.send_outcomes.counts == {"hit": 2, "miss": 2}

    def test_streams_are_per_peer(self):
        s = make("private", multiplier=1)
        assert s.acquire_send(2, 0)[0] == 0
        assert s.acquire_send(3, 0)[0] == 0

    def test_outcome_stats_recorded(self):
        s = make("private")
        s.acquire_send(2, 0)
        s.acquire_recv(2, 0)
        assert s.send_outcomes.total == 1
        assert s.recv_outcomes.total == 1

    def test_self_peer_rejected(self):
        # a scheme never lists its own node as a peer; a packet to itself
        # is rejected by Packet (test_interconnect)
        sec = SecurityConfig(scheme="private")
        with pytest.raises(ValueError):
            build_scheme("private", node=1, peers=[0, 1, 2], security=sec)


class TestShared:
    def test_pool_is_one_send_plus_per_peer_recv(self):
        # 1 send + 4 recv = 5 entries: the capacity-optimized layout
        assert make("shared").pool_size() == 5

    def test_destination_switch_desyncs_receiver(self):
        s = make("shared")
        _, first = s.acquire_send(2, 0)
        assert not first  # nothing sent before
        _, again = s.acquire_send(2, 100)
        assert again  # back-to-back same destination
        _, switched = s.acquire_send(3, 200)
        assert not switched

    def test_single_send_entry_thrashes_on_bursts(self):
        s = make("shared")
        waits = [s.acquire_send(2, 0)[0] for _ in range(3)]
        assert waits == [0, L, L]

    def test_desync_recv_costs_full_latency(self):
        s = make("shared")
        assert s.acquire_recv(2, now=500, synced=False) == L
        assert s.recv_outcomes.counts == {"miss": 1}


class TestCached:
    def test_pool_total_matches_private(self):
        assert make("cached").pool_size() == 32

    def test_pool_conserved_under_traffic(self):
        s = make("cached")
        for t in range(0, 2000, 7):
            s.acquire_send(2, t)
            s.acquire_recv(3, t)
        assert s.pool_size() == 32

    def test_hot_stream_accumulates_entries(self):
        s = make("cached", multiplier=2)
        # hammer one stream; it should steal capacity from idle streams
        for t in range(0, 400, 5):
            s.acquire_send(2, t)
        assert s.stream_capacity("send", 2) > 2
        # ...taken from other streams, which now hold less than their share
        others = [("send", p) for p in PEERS if p != 2] + [("recv", p) for p in PEERS]
        assert any(s.stream_capacity(d, p) < 2 for d, p in others)
        assert s.pool_size() == make("cached", multiplier=2).pool_size()

    def test_evicted_stream_misses_like_shared(self):
        s = make("cached", multiplier=1)
        # the hot stream (send, 2) steals the least recently used entry
        # the hot stream itself never misses the table: every send is synced
        assert all(s.acquire_send(2, t)[1] for t in range(0, 2000, 5))
        evicted = [p for p in PEERS if s.stream_capacity("send", p) == 0]
        assert evicted
        assert s.acquire_send(evicted[0], 3000) == (L, False)
        # the table miss brings the stream back by stealing one entry
        assert s.stream_capacity("send", evicted[0]) == 1

    def test_spaced_single_stream_hits(self):
        s = make("cached")
        for t in (0, 100, 200, 300):
            assert s.acquire_send(2, t) == (0, True)


class TestDynamic:
    def test_initial_allocation_matches_private(self):
        s = make("dynamic")
        assert s.pool_size() == 32
        for peer in PEERS:
            assert s.stream_capacity("send", peer) == 4
            assert s.stream_capacity("recv", peer) == 4

    def test_reallocation_follows_traffic(self):
        s = make("dynamic", interval=1000)
        # interval 0: all traffic is sends to peer 2
        for t in range(0, 1000, 10):
            s.note_send(2, t)
            s.acquire_send(2, t)
        # first observation in the next interval triggers the adjustment
        s.note_send(2, 1001)
        assert s.plans_applied == 1
        assert s.stream_capacity("send", 2) > 4
        assert s.pool_size() == 32  # pool conserved

    def test_starved_direction_loses_entries(self):
        s = make("dynamic", interval=500)
        for t in range(0, 500, 5):
            s.note_send(2, t)
        s.note_send(2, 501)
        total_recv = sum(s.stream_capacity("recv", p) for p in PEERS)
        assert total_recv < 16

    def test_adjustment_is_lazy_but_boundary_aligned(self):
        s = make("dynamic", interval=1000)
        for t in range(0, 1000, 10):
            s.note_send(2, t)  # enough samples to beat the noise gate
        s.note_send(2, 4200)  # 4 intervals later
        assert s.allocator.interval_start == 4000
        assert s.plans_applied == 1

    def test_sparse_interval_does_not_repartition(self):
        s = make("dynamic", interval=1000)
        for t in (0, 100, 200):  # 3 samples < min_samples
            s.note_send(2, t)
        s.note_send(2, 1001)
        assert s.plans_applied == 0
        assert s.stream_capacity("send", 2) == 4

    def test_balanced_traffic_stays_balanced(self):
        s = make("dynamic", interval=1000)
        for t in range(0, 1000, 20):
            for peer in PEERS:
                s.note_send(peer, t)
                s.note_recv(peer, t)
        s.note_send(2, 1001)
        for peer in PEERS:
            assert abs(s.stream_capacity("send", peer) - 4) <= 1


def _send_after_refill(at):
    """Private with one pad per stream, taken at 0: a send at ``at`` waits
    for the refill that is ready at L."""
    s = make("private", multiplier=1)
    s.acquire_send(2, 0)
    return s.send_outcomes, lambda: s.acquire_send(2, at)[0]


def _desync():
    s = make("private")
    return s.recv_outcomes, lambda: s.acquire_recv(2, 0, synced=False)


def _empty_stream():
    s = make("private", multiplier=0)  # OTP 0x: every stream is empty
    return s.send_outcomes, lambda: s.acquire_send(2, 0)[0]


def _cached_table_miss():
    s = make("cached", multiplier=0)  # no entry to hold any stream
    return s.send_outcomes, lambda: s.acquire_send(2, 0)[0]


def _ideal_burst():
    s = make("ideal")
    for _ in range(8):
        s.acquire_send(2, 0)
    return s.send_outcomes, lambda: s.acquire_send(2, 0)[0]


def _ideal_desync():
    s = make("ideal")
    return s.recv_outcomes, lambda: s.acquire_recv(2, 0, synced=False)


class TestOutcomeBuckets:
    """The Figs 10/22 bucket a scheme records for each wait."""

    @pytest.mark.parametrize(
        "case, wait, bucket",
        [
            (lambda: _send_after_refill(L), 0, "hit"),
            (lambda: _send_after_refill(L - 1), 1, "partial"),
            (lambda: _send_after_refill(1), L - 1, "partial"),
            (lambda: _send_after_refill(0), L, "miss"),
            (_desync, L, "miss"),
            (_empty_stream, L, "miss"),
            (_cached_table_miss, L, "miss"),
            (_ideal_burst, 0, "hit"),
            (_ideal_desync, 0, "hit"),
        ],
        ids=[
            "wait-0",
            "wait-1",
            "wait-L-1",
            "wait-L",
            "desync",
            "empty-stream",
            "cached-table-miss",
            "ideal-burst",
            "ideal-desync",
        ],
    )
    def test_wait_decides_the_bucket(self, case, wait, bucket):
        outcomes, acquire = case()
        before = dict(outcomes.counts)
        assert acquire() == wait
        added = {k: n - before.get(k, 0) for k, n in outcomes.counts.items()}
        assert {k: n for k, n in added.items() if n} == {bucket: 1}


class TestDynamicTick:
    """Dynamic calls its allocator only once an interval has ended."""

    @staticmethod
    def _count_adjust_calls(scheme):
        calls = []
        adjust = scheme.allocator.maybe_adjust

        def counted(now):
            plan = adjust(now)
            calls.append((now, plan))
            return plan

        scheme.allocator.maybe_adjust = counted
        return calls

    def test_no_allocator_call_inside_an_interval(self):
        s = make("dynamic", interval=1000)
        calls = self._count_adjust_calls(s)
        for t in range(0, 1000, 10):
            s.note_send(2, t)
            s.acquire_send(2, t)
            s.note_recv(3, t)
            s.acquire_recv(3, t)
        assert calls == []
        s.note_send(2, 1000)  # the first tick to reach the boundary
        assert len(calls) == 1 and calls[0][1] is not None
        s.acquire_send(2, 1000)
        s.note_recv(3, 1999)
        assert len(calls) == 1
        assert s.plans_applied == 1

    def test_plans_match_an_allocator_asked_on_every_tick(self):
        s = make("dynamic", interval=500)
        calls = self._count_adjust_calls(s)
        sec = s.security
        reference = DynamicOtpAllocator(
            PEERS, s.allocator.total_pool, sec.alpha, sec.beta, sec.interval
        )
        expected = []

        def tick(now):
            plan = reference.maybe_adjust(now)
            if plan is not None:
                expected.append((now, plan))

        rng = random.Random(7)
        t = 0
        while t < 6000:
            # shifting, skewed traffic; each acquisition may start after
            # the next message's enqueue, as at a busy crypto unit
            peer = rng.choice((2, 2, 2, 3) if t < 3000 else (0, 4, 4))
            s.note_send(peer, t)
            tick(t)
            reference.record_send(peer)
            start = t + rng.randint(0, 60)
            s.acquire_send(peer, start)
            tick(start)
            src = rng.choice(PEERS)
            s.note_recv(src, t)
            tick(t)
            reference.record_recv(src)
            s.acquire_recv(src, start)
            tick(start)
            t += rng.randint(1, 30)
            if 3000 <= t < 3100:
                t = 4700  # an idle gap of several intervals
        assert len(expected) > 5
        assert calls == expected
        assert s.plans_applied > 0
