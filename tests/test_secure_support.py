"""Engine model, metadata accountant, and replay guard tests."""

import pytest

from repro.configs import MetadataConfig, SecurityConfig
from repro.interconnect.packet import PacketKind
from repro.secure.metadata import ACKED_KINDS, BATCHABLE_KINDS, MetadataAccountant
from repro.secure.replay import ReplayGuard

from tests.test_transport import data_packet, make_fabric


class TestEngineModel:
    """The pipelined AES-GCM engines are modelled by SecurityConfig's three
    latencies: pad generation, GHASH and XOR."""

    def test_fast_paths(self):
        """With its pad in hand a message pays GHASH + XOR on each side."""

        def delivered(**latencies):
            sim, _, transport, inboxes = make_fabric("private", **latencies)
            transport.send(data_packet(), now=0)
            sim.run()
            ((_, at),) = inboxes[2]
            return at

        base = delivered(ghash_latency=4, xor_latency=1)
        assert delivered(ghash_latency=10, xor_latency=1) == base + 2 * 6
        assert delivered(ghash_latency=4, xor_latency=3) == base + 2 * 2

    def test_validation(self):
        with pytest.raises(ValueError, match="pad latency must be >= 1 cycle"):
            SecurityConfig(aes_gcm_latency=0)
        with pytest.raises(ValueError, match="latencies must be non-negative"):
            SecurityConfig(ghash_latency=-1)
        with pytest.raises(ValueError, match="latencies must be non-negative"):
            SecurityConfig(xor_latency=-1)
        with pytest.raises(ValueError, match="batch timeout must be >= 1"):
            SecurityConfig(batch_timeout=0)


class TestMetadataAccountant:
    def test_conventional_meta_is_ctr_mac_id(self):
        acc = MetadataAccountant(MetadataConfig())
        assert acc.conventional_meta() == 8 + 8 + 1

    def test_batched_meta_variants(self):
        acc = MetadataAccountant(MetadataConfig())
        middle = acc.batched_block_meta(False, False)
        opener = acc.batched_block_meta(True, False)
        closer = acc.batched_block_meta(False, True)
        assert middle == 8 + 1
        assert opener == middle + 1
        assert closer == middle + 8

    def test_secure_commu_mode_zeroes_bandwidth(self):
        acc = MetadataAccountant(MetadataConfig(), count_metadata=False)
        assert acc.conventional_meta() == 0
        assert acc.batched_block_meta(True, True) == 0
        assert acc.ack_packet_size() == 1  # still serializable

    def test_ack_and_batch_mac_sizes(self):
        acc = MetadataAccountant(MetadataConfig())
        assert acc.ack_packet_size() == 16
        assert acc.standalone_batch_mac_size() == 8 + 1 + 1

    def test_ack_policy(self):
        assert PacketKind.DATA_RESP.acked
        assert PacketKind.WRITE_REQ.acked
        assert PacketKind.MIGRATION_DATA.acked
        assert not PacketKind.READ_REQ.acked
        assert not PacketKind.SEC_ACK.acked

    def test_batchable_policy(self):
        assert PacketKind.DATA_RESP.batchable
        assert PacketKind.MIGRATION_DATA.batchable
        assert not PacketKind.WRITE_REQ.batchable

    @pytest.mark.parametrize("kind", list(PacketKind))
    def test_kind_flags_follow_the_kind_sets(self, kind):
        assert kind.acked is (kind in ACKED_KINDS)
        assert kind.batchable is (kind in BATCHABLE_KINDS)


class TestReplayGuard:
    def test_fifo_ack_matching(self):
        g = ReplayGuard(node=1)
        g.on_send(2, counter=0)
        g.on_send(2, counter=1)
        assert g.on_ack(2, counter=0)
        assert g.on_ack(2, counter=1)
        assert g.acked == 2 and g.violations == 0

    def test_counter_mismatch_is_violation(self):
        g = ReplayGuard(1)
        g.on_send(2, counter=7)
        assert not g.on_ack(2, counter=9)
        assert g.violations == 1

    def test_unexpected_ack_is_violation(self):
        g = ReplayGuard(1)
        assert not g.on_ack(2)
        assert g.violations == 1

    def test_outstanding_drains_on_acks(self):
        g = ReplayGuard(1)
        for c in range(5):
            g.on_send(2, c)
        assert g.outstanding() == 5
        for c in range(5):
            g.on_ack(2, counter=c)
        assert g.outstanding() == 0
        assert g.acked == 5

    def test_outstanding_per_peer(self):
        g = ReplayGuard(1)
        g.on_send(2, 0)
        g.on_send(3, 0)
        assert g.outstanding(2) == 1
        assert g.outstanding() == 2

    def test_mismatch_resynchronizes_through_lost_entries(self):
        """Regression: a deep-queue ACK means the entries ahead of it were
        lost in flight; the guard must retire through it instead of leaving
        a stale head that miscounts every later ACK as a violation."""
        g = ReplayGuard(1)
        for c in (0, 1, 2):
            g.on_send(2, c)
        assert not g.on_ack(2, counter=1)  # counter 0 was lost
        assert g.violations == 1
        assert g.dropped == 1  # entry 0 retired with lost semantics
        assert g.acked == 1  # entry 1 retired as acknowledged
        assert g.outstanding(2) == 1  # only entry 2 remains
        # the queue is resynchronized: the next ACK matches cleanly
        assert g.on_ack(2, counter=2)
        assert g.violations == 1

    def test_forged_ack_leaves_queue_untouched(self):
        g = ReplayGuard(1)
        g.on_send(2, 5)
        assert not g.on_ack(2, counter=99)  # never sent
        assert g.violations == 1
        assert g.dropped == 0
        assert g.outstanding(2) == 1
        assert g.on_ack(2, counter=5)  # real ACK still matches

    def test_retire_lost_voids_a_specific_entry(self):
        g = ReplayGuard(1)
        for c in (0, 1, 2):
            g.on_send(2, c)
        assert g.retire_lost(2, 1)
        assert g.dropped == 1
        assert g.outstanding(2) == 2
        assert not g.retire_lost(2, 1)  # already gone
        # FIFO matching proceeds as if 1 was never queued
        assert g.on_ack(2, counter=0)
        assert g.on_ack(2, counter=2)
        assert g.violations == 0

class TestReplayGuardWindow:
    """Out-of-order ACK tolerance: the boundary is exact (depth < window)."""

    def _sent(self, window: int, n: int = 6) -> ReplayGuard:
        g = ReplayGuard(1, window=window)
        for c in range(n):
            g.on_send(2, c)
        return g

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            ReplayGuard(1, window=-1)

    def test_window_zero_is_strict_fifo(self):
        g = self._sent(0, n=3)
        assert not g.on_ack(2, counter=1)  # depth 1: violation under w=0
        assert g.violations == 1
        assert g.max_reorder_depth == 0

    def test_window_one_equals_strict_fifo(self):
        # depth must satisfy 0 < d < 1: impossible, so w=1 accepts only heads
        g = self._sent(1, n=3)
        assert not g.on_ack(2, counter=1)
        assert g.violations == 1
        assert g.max_reorder_depth == 0

    def test_depth_zero_is_a_plain_head_match(self):
        g = self._sent(4)
        assert g.on_ack(2, counter=0)
        assert g.max_reorder_depth == 0
        assert g.violations == 0 and g.acked == 1

    def test_last_in_window_depth_accepted(self):
        w = 4
        g = self._sent(w)
        assert g.on_ack(2, counter=w - 1)  # depth W-1: last legal position
        assert g.violations == 0
        assert g.dropped == 0
        assert g.acked == 1
        assert g.max_reorder_depth == w - 1
        # overtaken entries are still queued and still ACK cleanly
        assert g.outstanding(2) == 5
        assert g.on_ack(2, counter=0)
        assert g.violations == 0

    def test_exact_window_depth_resyncs(self):
        w = 4
        g = self._sent(w)
        assert not g.on_ack(2, counter=w)  # depth W: first illegal position
        assert g.violations == 1
        # resynchronization: entries ahead retired as lost, match as acked
        assert g.dropped == w
        assert g.acked == 1
        assert g.outstanding(2) == 1
        assert g.max_reorder_depth == 0

    def test_beyond_window_depth_resyncs(self):
        w = 4
        g = self._sent(w)
        assert not g.on_ack(2, counter=w + 1)  # depth W+1
        assert g.violations == 1
        assert g.dropped == w + 1
        assert g.acked == 1

    def test_reordered_acks_drain_whole_queue_without_violations(self):
        g = self._sent(3, n=4)
        for counter in (2, 1, 0, 3):  # worst legal shuffle for w=3
            assert g.on_ack(2, counter=counter)
        assert g.violations == 0
        assert g.dropped == 0
        assert g.acked == 4
        assert g.outstanding(2) == 0
        assert g.max_reorder_depth == 2

    def test_forged_ack_still_rejected_inside_window(self):
        g = self._sent(3, n=2)
        assert not g.on_ack(2, counter=99)  # never sent
        assert g.violations == 1
        assert g.outstanding(2) == 2  # queue untouched


class TestReplayGuardMixedChannels:
    """Batched and conventional entries interleave on one pair, but each
    channel keeps its own record.

    The windowed-ACK edge cases: conventional-ACK freshness depth is
    measured over the conventional FIFO only — batch entries sent ahead
    are on the slower channel, not "overtaken".
    """

    def test_batch_entries_at_head_do_not_count_toward_depth(self):
        # Sent: b0 b1, then 10 11 12; the batch is still open, so counter 10
        # sits at FIFO depth 0 and must ACK cleanly even under w=0.
        g = ReplayGuard(1, window=0)
        g.on_send(2, 0, batch_id=7)
        g.on_send(2, 1, batch_id=7)
        for c in (10, 11, 12):
            g.on_send(2, c)
        assert g.on_ack(2, counter=10)
        assert g.violations == 0 and g.max_reorder_depth == 0
        # the batch ACK then retires exactly its own members
        assert g.on_ack(2, batch_id=7)
        assert g.outstanding(2) == 2
        assert g.acked == 3

    def _mixed(self, window: int) -> ReplayGuard:
        # Sent: b0 10 11 b1 12 13 — FIFO [10 11 12 13], with batch 5's
        # members sent around it.
        g = ReplayGuard(1, window=window)
        g.on_send(2, 0, batch_id=5)
        for c in (10, 11):
            g.on_send(2, c)
        g.on_send(2, 1, batch_id=5)
        for c in (12, 13):
            g.on_send(2, c)
        return g

    def test_untagged_depth_window_minus_one_accepted(self):
        w = 3
        g = self._mixed(w)
        assert g.on_ack(2, counter=12)  # FIFO depth 2 == W-1
        assert g.violations == 0
        assert g.max_reorder_depth == w - 1
        assert g.outstanding(2) == 5  # nothing dropped, batch intact

    def test_untagged_depth_window_resyncs_but_spares_tagged(self):
        g = self._mixed(3)
        assert not g.on_ack(2, counter=13)  # FIFO depth 3 == W: resync
        assert g.violations == 1
        assert g.dropped == 3  # 10, 11, 12; the batched 0 and 1 survive
        # both batch members are still retirable by their batch ACK
        assert g.on_ack(2, batch_id=5)
        assert g.outstanding(2) == 0
        assert g.violations == 1  # no new violation from the batch ACK

    def test_window_zero_mixed_queue_stays_strict_on_untagged(self):
        g = ReplayGuard(1, window=0)
        g.on_send(2, 0, batch_id=3)
        g.on_send(2, 10)
        g.on_send(2, 11)
        assert not g.on_ack(2, counter=11)  # FIFO depth 1: violation
        assert g.violations == 1
        assert g.dropped == 1  # 10 resynced away; the batched 0 survives
        assert g.on_ack(2, batch_id=3)
        assert g.outstanding(2) == 0

    def test_double_acked_batch_is_a_violation_and_a_noop(self):
        g = ReplayGuard(1)
        g.on_send(2, 0, batch_id=9)
        g.on_send(2, 10)
        assert g.on_ack(2, batch_id=9)
        before = g.outstanding(2)
        assert not g.on_ack(2, batch_id=9)  # replayed batch ACK
        assert g.violations == 1
        assert g.outstanding(2) == before

    def test_retire_lost_discards_the_batch_tag(self):
        # A retransmitted block is voided; the later batch ACK answers only
        # the surviving member and must not resurrect the voided one.
        g = ReplayGuard(1)
        g.on_send(2, 0, batch_id=4)
        g.on_send(2, 1, batch_id=4)
        assert g.retire_lost(2, 0, batch_id=4)
        assert g.on_ack(2, batch_id=4) == [1]
        assert g.acked == 1 and g.dropped == 1
        assert g.outstanding(2) == 0
