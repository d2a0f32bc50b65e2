"""Detailed secure-transport behaviour tests."""

import pytest

from repro.configs import MetadataConfig, default_config
from repro.interconnect.packet import Packet, PacketKind
from repro.interconnect.topology import Topology
from repro.secure.channel import SecureTransport, build_transport
from repro.sim.engine import Simulator

from tests.test_transport import data_packet, make_fabric


class TestCryptoFifo:
    def test_head_of_line_blocking_serializes_stalls(self):
        """With one pad, a burst's misses must queue behind each other."""
        sim, _, transport, inboxes = make_fabric("shared")
        for i in range(8):
            transport.send(data_packet(txn=i), now=0)
        sim.run()
        times = sorted(t for _, t in inboxes[2])
        # send- and recv-side stalls overlap pairwise, so the burst drains
        # two messages per engine latency — still serialized, never at once
        assert times[-1] - times[0] >= (8 / 2 - 1) * 40 * 0.9

    def test_independent_pairs_do_not_block_each_other(self):
        sim, _, transport, inboxes = make_fabric("shared", n_gpus=3)
        # a deep stalled burst on pair 1->2 and one message on pair 3->2
        for i in range(6):
            transport.send(data_packet(src=1, dst=2, txn=i), now=0)
        transport.send(data_packet(src=3, dst=2, txn=99), now=0)
        sim.run()
        arrivals = {p.txn_id: t for p, t in inboxes[2]}
        # the fresh pair pays its own desync only, never 1->2's queue
        assert arrivals[99] < max(arrivals.values())
        assert arrivals[99] <= arrivals[0] + 45


class TestProtectRequests:
    def test_requests_secured_when_extension_enabled(self):
        cfg = default_config(2, scheme="private", protect_requests=True)
        sim = Simulator()
        topo = Topology(2)
        transport = SecureTransport(sim, topo, cfg)
        got = []
        for node in topo.nodes():
            transport.register(node, lambda p, t, n=node: got.append((n, p, t)))
        req = Packet(kind=PacketKind.READ_REQ, src=1, dst=2, size_bytes=16)
        transport.send(req, now=0)
        sim.run()
        [(_, packet, _)] = got
        assert packet.meta_bytes == 17  # full CTR+MAC+ID on the request

    def test_requests_plain_by_default(self):
        sim, topo, transport, inboxes = make_fabric("private")
        req = Packet(kind=PacketKind.READ_REQ, src=1, dst=2, size_bytes=16)
        transport.send(req, now=0)
        sim.run()
        [(packet, _)] = inboxes[2]
        assert packet.meta_bytes == 0
        assert topo.meta_bytes == 0


class TestCompressedCounters:
    def test_compressed_counters_shrink_metadata(self):
        md = MetadataConfig(compressed_counters=True)
        assert md.wire_ctr_bytes == 2
        assert md.per_message_meta_bytes == 2 + 8 + 1
        assert md.batched_block_meta_bytes == 3

    def test_full_counters_by_default(self):
        md = MetadataConfig()
        assert md.wire_ctr_bytes == 8


class TestBatchArrivalTracking:
    def test_out_of_order_batch_completion(self):
        """The ACK fires only once all blocks of a batch arrived."""
        sim, _, transport, inboxes = make_fabric(
            "private", batching=True, batch_size=3, batch_timeout=100000
        )
        for i in range(3):
            transport.send(data_packet(txn=i), now=0)
        sim.run()
        assert transport.acks_sent == 1
        assert len(inboxes[2]) == 3
        assert not transport._batch_arrivals  # tracker fully drained

    def test_two_interleaved_destinations_batch_separately(self):
        sim, _, transport, inboxes = make_fabric(
            "private", n_gpus=3, batching=True, batch_size=2, batch_timeout=100000
        )
        transport.send(data_packet(src=1, dst=2, txn=1), now=0)
        transport.send(data_packet(src=1, dst=3, txn=2), now=0)
        transport.send(data_packet(src=1, dst=2, txn=3), now=0)
        transport.send(data_packet(src=1, dst=3, txn=4), now=0)
        sim.run()
        assert transport.acks_sent == 2  # one per destination batch
