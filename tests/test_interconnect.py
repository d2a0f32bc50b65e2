"""Interconnect substrate tests: packets, channels, topology."""

import pytest

from repro.interconnect.link import Channel
from repro.interconnect.packet import Packet, PacketKind
from repro.interconnect.topology import CPU_NODE, Topology


def mk_packet(src=1, dst=2, size=80, meta=0, kind=PacketKind.DATA_RESP):
    return Packet(kind=kind, src=src, dst=dst, size_bytes=size, meta_bytes=meta)


class TestPacket:
    def test_base_bytes_excludes_metadata(self):
        p = mk_packet(size=97, meta=17)
        assert p.base_bytes == 80

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            mk_packet(size=0)
        with pytest.raises(ValueError):
            mk_packet(size=10, meta=11)
        with pytest.raises(ValueError):
            mk_packet(src=3, dst=3)

    def test_carries_data_classification(self):
        assert PacketKind.DATA_RESP.carries_data
        assert PacketKind.WRITE_REQ.carries_data
        assert PacketKind.MIGRATION_DATA.carries_data
        assert not PacketKind.READ_REQ.carries_data
        assert not PacketKind.SEC_ACK.carries_data

    def test_packet_ids_unique(self):
        assert mk_packet().pid != mk_packet().pid


class TestChannel:
    def test_serialization_time(self):
        ch = Channel("c", bytes_per_cycle=32.0, latency=100)
        # an idle channel each time: arrival = now + serialization + latency
        assert ch.send(mk_packet(size=64), now=0) == 0 + 2 + 100
        assert ch.send(mk_packet(size=65), now=1000) == 1000 + 3 + 100
        assert ch.send(mk_packet(size=1), now=2000) == 2000 + 1 + 100

    def test_send_arrival_includes_latency(self):
        ch = Channel("c", bytes_per_cycle=64.0, latency=10)
        arrival = ch.send(mk_packet(size=64), now=100)
        assert arrival == 100 + 1 + 10

    def test_back_to_back_packets_queue(self):
        ch = Channel("c", bytes_per_cycle=1.0, latency=0)
        a1 = ch.send(mk_packet(size=10), now=0)
        a2 = ch.send(mk_packet(size=10), now=0)
        assert a1 == 10
        assert a2 == 20

    def test_idle_gap_does_not_queue(self):
        ch = Channel("c", bytes_per_cycle=1.0, latency=0)
        ch.send(mk_packet(size=5), now=0)
        arrival = ch.send(mk_packet(size=5), now=100)
        assert arrival == 105

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Channel("c", bytes_per_cycle=0, latency=0)
        with pytest.raises(ValueError):
            Channel("c", bytes_per_cycle=1, latency=-1)


class TestTopology:
    def test_node_numbering(self):
        topo = Topology(n_gpus=4)
        assert topo.nodes() == [0, 1, 2, 3, 4]
        assert topo.gpu_nodes() == [1, 2, 3, 4]
        assert CPU_NODE == 0

    def test_channel_count_ports_plus_bus(self):
        topo = Topology(n_gpus=4)
        # 2 PCIe bus directions + 4 GPU egress + 4 GPU ingress ports
        reached = {
            id(channel)
            for src in topo.nodes()
            for dst in topo.peers_of(src)
            for channel in topo.path(src, dst)
        }
        assert len(reached) == 10

    def test_link_rates_match_table3(self):
        topo = Topology(n_gpus=2)
        pcie = topo.path(CPU_NODE, 1)[0]
        nvlink = topo.path(1, 2)[0]
        assert pcie.bytes_per_cycle == 32.0
        assert nvlink.bytes_per_cycle == 50.0

    def test_pcie_is_a_shared_bus(self):
        topo = Topology(n_gpus=3)
        # all CPU->GPU flows serialize on the same downstream bus channel
        assert topo.path(CPU_NODE, 1)[0] is topo.path(CPU_NODE, 2)[0]
        # directions are independent
        assert topo.path(CPU_NODE, 1)[0] is not topo.path(1, CPU_NODE)[0]

    def test_gpu_path_crosses_egress_then_ingress(self):
        topo = Topology(n_gpus=3)
        path = topo.path(1, 3)
        assert len(path) == 2
        assert path[0] is topo.path(1, 2)[0]  # source egress port is shared
        assert path[1] is topo.path(2, 3)[1]  # destination ingress shared

    def test_route_missing_pair_raises(self):
        topo = Topology(n_gpus=2)
        with pytest.raises(ValueError):
            topo.path(1, 9)
        with pytest.raises(ValueError):
            topo.path(1, 1)

    def test_peers_of(self):
        topo = Topology(n_gpus=3)
        assert topo.peers_of(2) == [0, 1, 3]

    def test_fabric_traffic_totals(self):
        topo = Topology(n_gpus=2)
        topo.send(mk_packet(src=1, dst=2, size=80, meta=17), now=0)
        topo.send(mk_packet(src=0, dst=1, size=16), now=0)
        assert topo.total_bytes == 96
        assert topo.meta_bytes == 17
        assert topo.base_bytes == 79

    def test_requires_a_gpu(self):
        with pytest.raises(ValueError):
            Topology(n_gpus=0)
