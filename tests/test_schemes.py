"""OTP buffer-management scheme behaviour tests."""

import pytest

from repro.configs import SecurityConfig
from repro.secure.otp_buffer import PadOutcome
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
            assert s.acquire_send(2, t).grant.outcome is PadOutcome.HIT

    def test_receiver_always_synced(self):
        assert make("private").acquire_send(2, 0).receiver_synced

    def test_burst_beyond_multiplier_misses(self):
        s = make("private", multiplier=2)
        outcomes = [s.acquire_send(2, 0).grant.outcome for _ in range(4)]
        assert outcomes[:2] == [PadOutcome.HIT, PadOutcome.HIT]
        assert outcomes[2] is PadOutcome.MISS

    def test_streams_are_per_peer(self):
        s = make("private", multiplier=1)
        assert s.acquire_send(2, 0).grant.outcome is PadOutcome.HIT
        assert s.acquire_send(3, 0).grant.outcome is PadOutcome.HIT

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
        first = s.acquire_send(2, 0)
        assert not first.receiver_synced  # nothing sent before
        again = s.acquire_send(2, 100)
        assert again.receiver_synced  # back-to-back same destination
        switched = s.acquire_send(3, 200)
        assert not switched.receiver_synced
        assert s.destination_switches == 2

    def test_single_send_entry_thrashes_on_bursts(self):
        s = make("shared")
        outcomes = [s.acquire_send(2, 0).grant.outcome for _ in range(3)]
        assert outcomes[0] is PadOutcome.HIT
        assert outcomes[1] is PadOutcome.MISS

    def test_desync_recv_costs_full_latency(self):
        s = make("shared")
        grant = s.acquire_recv(2, now=500, synced=False)
        assert grant.outcome is PadOutcome.MISS and grant.wait == L


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
        assert s.evictions > 0

    def test_evicted_stream_misses_like_shared(self):
        s = make("cached", multiplier=1)
        # drain every entry toward stream (send, 2)
        for t in range(0, 2000, 5):
            s.acquire_send(2, t)
        victim_capacity = s.stream_capacity("send", 4)
        if victim_capacity == 0:
            grant = s.acquire_send(4, 3000).grant
            assert grant.outcome is PadOutcome.MISS and grant.wait == L
            assert s.table_misses >= 1

    def test_spaced_single_stream_hits(self):
        s = make("cached")
        for t in (0, 100, 200, 300):
            assert s.acquire_send(2, t).grant.outcome is PadOutcome.HIT


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
