"""Secure/unsecure transport integration tests on a tiny 2-GPU system."""

from collections import Counter

import pytest

from repro.configs import default_config
from repro.interconnect.packet import Packet, PacketKind
from repro.interconnect.topology import Topology
from repro.secure.channel import SecureTransport, UnsecureTransport, build_transport
from repro.sim.engine import Simulator
from repro.system import MultiGpuSystem, OtpDistribution
from repro.workloads import get_workload


def make_fabric(scheme="private", n_gpus=2, **security_overrides):
    cfg = default_config(n_gpus=n_gpus, scheme=scheme, **security_overrides)
    sim = Simulator()
    topo = Topology(n_gpus=n_gpus)
    transport = build_transport(sim, topo, cfg)
    inboxes = {node: [] for node in topo.nodes()}
    for node in topo.nodes():
        transport.register(node, lambda p, t, n=node: inboxes[n].append((p, t)))
    return sim, topo, transport, inboxes


def data_packet(src=1, dst=2, txn=7):
    return Packet(kind=PacketKind.DATA_RESP, src=src, dst=dst, size_bytes=80, txn_id=txn)


class TestBuildTransport:
    def test_unsecure_builds_plain_transport(self):
        _, _, transport, _ = make_fabric("unsecure")
        assert isinstance(transport, UnsecureTransport)

    def test_managed_scheme_builds_secure_transport(self):
        _, _, transport, _ = make_fabric("cached")
        assert isinstance(transport, SecureTransport)

    def test_secure_transport_rejects_unsecure(self):
        cfg = default_config(scheme="unsecure")
        with pytest.raises(ValueError):
            SecureTransport(Simulator(), Topology(4), cfg)

    @pytest.mark.parametrize(
        "scheme, link, expected",
        [
            ("unsecure", "clean", "UnsecureTransport"),
            ("unsecure", "faults", "HostileUnsecureTransport"),
            ("unsecure", "adversary", "HostileUnsecureTransport"),
            ("private", "clean", "SecureTransport"),
            ("private", "faults", "HostileSecureTransport"),
            ("private", "adversary", "HostileSecureTransport"),
        ],
    )
    def test_the_link_decides_the_class(self, scheme, link, expected):
        from repro.secure.hostile import HostileSecureTransport, HostileUnsecureTransport

        classes = {
            cls.__name__: cls
            for cls in (
                UnsecureTransport,
                SecureTransport,
                HostileUnsecureTransport,
                HostileSecureTransport,
            )
        }
        cfg = default_config(scheme=scheme)
        if link == "faults":
            cfg = cfg.with_fault(drop_rate=0.01)
        elif link == "adversary":
            cfg = cfg.with_adversary(replay_rate=0.01)
        assert type(build_transport(Simulator(), Topology(4), cfg)) is classes[expected]


class TestUnsecureTransport:
    def test_delivery_and_no_metadata(self):
        sim, topo, transport, inboxes = make_fabric("unsecure")
        transport.send(data_packet(), now=0)
        sim.run()
        [(packet, time)] = inboxes[2]
        assert packet.meta_bytes == 0
        assert topo.meta_bytes == 0
        # 80 B serializes on the source egress port (2 cycles) + 60-cycle
        # wire latency + 2 more cycles on the destination ingress port
        assert time == 64

    def test_duplicate_registration_rejected(self):
        _, _, transport, _ = make_fabric("unsecure")
        with pytest.raises(ValueError):
            transport.register(1, lambda p, t: None)


class TestSecureTransport:
    def test_metadata_attached_and_counted(self):
        sim, topo, transport, inboxes = make_fabric("private")
        transport.send(data_packet(), now=0)
        sim.run()
        [(packet, _)] = inboxes[2]
        assert packet.meta_bytes == 17  # CTR 8 + MAC 8 + senderID 1
        assert packet.size_bytes == 97
        # data packets trigger a replay ACK back to the sender
        assert transport.acks_sent == 1
        assert topo.meta_bytes == 17 + 16  # message meta + ACK

    def test_secure_delivery_is_slower_than_unsecure(self):
        sim_u, _, t_u, in_u = make_fabric("unsecure")
        t_u.send(data_packet(), now=0)
        sim_u.run()
        sim_s, _, t_s, in_s = make_fabric("shared")
        # exhaust the shared send pad so the second message pays latency
        t_s.send(data_packet(txn=1), now=0)
        t_s.send(data_packet(txn=2), now=0)
        sim_s.run()
        unsecure_time = in_u[2][0][1]
        secure_second = in_s[2][1][1]
        assert secure_second > unsecure_time

    def test_ack_retires_replay_entry(self):
        sim, _, transport, _ = make_fabric("private")
        transport.send(data_packet(), now=0)
        assert transport.guards[1].outstanding(2) == 1
        sim.run()
        assert transport.guards[1].outstanding(2) == 0
        assert transport.guards[1].violations == 0

    def test_read_requests_not_acked(self):
        sim, _, transport, _ = make_fabric("private")
        req = Packet(kind=PacketKind.READ_REQ, src=1, dst=2, size_bytes=16)
        transport.send(req, now=0)
        sim.run()
        assert transport.acks_sent == 0

    def test_secure_commu_mode_has_zero_metadata_bytes(self):
        sim, topo, transport, inboxes = make_fabric("private", count_metadata=False)
        transport.send(data_packet(), now=0)
        sim.run()
        assert topo.meta_bytes == 0
        assert transport.acks_sent == 0
        assert transport.guards[1].outstanding(2) == 0  # still retired
        assert len(inboxes[2]) == 1

    def test_otp_summary_structure(self):
        # the report's OTP fractions merge every node's pad outcomes
        trace = get_workload("fir").generate(n_gpus=2, seed=1, scale=0.1)
        system = MultiGpuSystem(default_config(n_gpus=2, scheme="private"))
        report = system.run(trace)
        for direction, dist in (("send", report.otp_send), ("recv", report.otp_recv)):
            counts = Counter()
            for scheme in system.transport.schemes.values():
                counts.update(getattr(scheme, f"{direction}_outcomes").counts)
            total = sum(counts.values())
            assert total > 0
            assert dist == OtpDistribution(**{k: n / total for k, n in counts.items()})

    def test_housekeeping_kinds_rejected_from_devices(self):
        _, _, transport, _ = make_fabric("private")
        ack = Packet(kind=PacketKind.SEC_ACK, src=1, dst=2, size_bytes=16)
        with pytest.raises(ValueError):
            transport.send(ack, now=0)


class TestBatchedTransport:
    def _batched(self, batch_size=4, timeout=100):
        return make_fabric(
            "dynamic", batching=True, batch_size=batch_size, batch_timeout=timeout
        )

    def test_full_batch_single_ack(self):
        sim, topo, transport, inboxes = self._batched(batch_size=4)
        for i in range(4):
            transport.send(data_packet(txn=i), now=0)
        sim.run()
        assert len(inboxes[2]) == 4
        assert transport.acks_sent == 1  # one ACK for the whole batch
        assert transport.guards[1].outstanding(2) == 0

    def test_batched_metadata_smaller_than_conventional(self):
        sim, topo, transport, _ = self._batched(batch_size=4)
        for i in range(4):
            transport.send(data_packet(txn=i), now=0)
        sim.run()
        batched_meta = topo.meta_bytes
        sim2, topo2, transport2, _ = make_fabric("dynamic")
        for i in range(4):
            transport2.send(data_packet(txn=i), now=0)
        sim2.run()
        assert batched_meta < topo2.meta_bytes

    def test_timeout_close_emits_standalone_mac(self):
        sim, _, transport, inboxes = self._batched(batch_size=16, timeout=50)
        transport.send(data_packet(txn=1), now=0)
        transport.send(data_packet(txn=2), now=0)
        sim.run()
        assert transport.batch_macs_sent == 1
        assert transport.acks_sent == 1
        assert transport.guards[1].outstanding(2) == 0
        assert len(inboxes[2]) == 2  # BATCH_MAC is consumed by the transport

    def test_mac_storage_drains_after_batch(self):
        # the receiver holds each batch's per-block MsgMACs in its batch
        # record until that batch's MAC verifies, then ACKs and drops it
        sim, _, transport, _ = self._batched(batch_size=4)
        for i in range(8):
            transport.send(data_packet(txn=i), now=0)
        sim.run()
        assert transport._batch_arrivals == {}
        assert transport.acks_sent == 2

    def test_write_requests_stay_conventional(self):
        sim, _, transport, _ = self._batched(batch_size=4)
        w = Packet(kind=PacketKind.WRITE_REQ, src=1, dst=2, size_bytes=80)
        transport.send(w, now=0)
        sim.run()
        assert transport.acks_sent == 1  # per-message ACK, no batching

    def test_hostile_batch_ack_settles_only_its_own_batch(self):
        # A hostile link (a fault rate too small to ever fire) keeps a
        # recovery record and a retransmission timer per block.  Batch A
        # fills up and is ACKed while batch B still waits for its timeout.
        cfg = default_config(
            n_gpus=2, scheme="dynamic", batching=True, batch_size=4, batch_timeout=1000
        ).with_fault(delay_rate=1e-12)
        sim, topo = Simulator(), Topology(n_gpus=2)
        transport = build_transport(sim, topo, cfg)
        for node in topo.nodes():
            transport.register(node, lambda p, t: None)
        acks = []
        acked = transport._acked

        def spy(sender, receiver, counter, batch_id):
            before = {key: (record, record.timer) for key, record in transport._pending.items()}
            settled = acked(sender, receiver, counter, batch_id)
            after = {key: record.timer for key, record in transport._pending.items()}
            cancelled = {key: timer.cancelled for key, (_, timer) in before.items()}
            acks.append((batch_id, settled, before, after, cancelled))
            return settled

        transport._acked = spy
        for i in range(6):
            transport.send(data_packet(txn=i), now=0)
        sim.run()
        assert transport.fault_stats.delays_injected == 0
        assert len(acks) == 2  # one per batch; the first one is batch A's
        batch_id, settled, before, after, cancelled = acks[0]
        own = {key for key, (record, _) in before.items() if record.batch_ctx.batch_id == batch_id}
        assert len(own) == 4 == len(before) - 2
        assert sorted(settled) == sorted(ctr for _, _, ctr in own)
        # batch B keeps its two records, each with its live timer
        assert after == {key: timer for key, (_, timer) in before.items() if key not in own}
        assert all(cancelled[key] == (key in own) for key in before)
        assert transport._pending == {}


class TestInstrumentation:
    def test_timelines_record_send_and_recv(self):
        sim, _, transport, _ = make_fabric("private")
        transport.send(data_packet(), now=0)
        sim.run()
        tl1 = transport.timelines[1]
        tl2 = transport.timelines[2]
        assert sum(tl1.series("send", 1)) == 1
        assert sum(tl1.series("to2", 1)) == 1
        assert sum(tl2.series("recv", tl2.n_buckets())) == 1

    def test_burst_histogram_records_after_16_blocks(self):
        sim, _, transport, _ = make_fabric("unsecure")
        for i in range(16):
            transport.send(data_packet(txn=i), now=0)
        sim.run()
        assert transport.burst16.total == 1
        assert transport.burst32.total == 0

    def test_acks_do_not_pollute_timelines(self):
        sim, _, transport, _ = make_fabric("private")
        transport.send(data_packet(), now=0)
        sim.run()
        tl2 = transport.timelines[2]
        assert "to1" not in tl2.channels()  # the ACK is housekeeping
