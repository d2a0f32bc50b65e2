"""GPU-fabric organization tests: p2p, ring, switch."""

from dataclasses import replace

import pytest

from repro.configs import LinkConfig, scheme_config
from repro.interconnect.packet import Packet, PacketKind
from repro.interconnect.topology import FABRICS, Topology
from repro.system import run_workload
from repro.workloads import get_workload


def packet(src, dst, size=80):
    return Packet(kind=PacketKind.DATA_RESP, src=src, dst=dst, size_bytes=size)


def reached_channels(topo):
    """Every channel that some (src -> dst) path crosses, each once."""
    reached = {}
    for src in topo.nodes():
        for dst in topo.peers_of(src):
            for channel in topo.path(src, dst):
                reached[id(channel)] = channel
    return list(reached.values())


class TestRing:
    def test_adjacent_is_single_hop(self):
        topo = Topology(4, fabric="ring")
        assert len(topo.path(1, 2)) == 1
        assert len(topo.path(2, 1)) == 1

    def test_opposite_corner_hops_through_ring(self):
        topo = Topology(4, fabric="ring")
        assert len(topo.path(1, 3)) == 2
        topo8 = Topology(8, fabric="ring")
        assert len(topo8.path(1, 5)) == 4

    def test_shortest_direction_chosen(self):
        topo = Topology(8, fabric="ring")
        assert len(topo.path(1, 8)) == 1  # counter-clockwise wrap
        assert len(topo.path(8, 2)) == 2

    def test_ring_arrival_grows_with_distance(self):
        topo = Topology(8, fabric="ring")
        near = topo.send(packet(1, 2), now=0)
        far = topo.send(packet(1, 5), now=0)
        assert far > near

    def test_intermediate_segments_are_shared(self):
        topo = Topology(4, fabric="ring")
        # 1->3 clockwise passes through node 2's cw link, shared with 2->3
        path_13 = topo.path(1, 3)
        path_23 = topo.path(2, 3)
        assert path_13[1] is path_23[0]

    def test_pcie_unchanged_by_fabric(self):
        topo = Topology(4, fabric="ring")
        assert len(topo.path(0, 3)) == 1
        assert len(topo.path(3, 0)) == 1


class TestSwitch:
    def test_all_gpu_traffic_crosses_the_switch(self):
        topo = Topology(4, fabric="switch")
        for src in (1, 2, 3):
            path = topo.path(src, 4)
            assert len(path) == 3
            assert path[1].name == "nvswitch"

    def test_switch_aggregate_bandwidth(self):
        topo = Topology(4, fabric="switch", switch_factor=2.0)
        switch = topo.path(1, 2)[1]
        assert switch.bytes_per_cycle == 100.0  # 2 x 50

    def test_switch_congests_under_all_to_all(self):
        fat = Topology(4, fabric="switch", switch_factor=100.0)
        thin = Topology(4, fabric="switch", switch_factor=0.5)
        last_fat = last_thin = 0
        for i, (s, d) in enumerate([(1, 2), (2, 3), (3, 4), (4, 1)] * 8):
            last_fat = max(last_fat, fat.send(packet(s, d), now=0))
            last_thin = max(last_thin, thin.send(packet(s, d), now=0))
        assert last_thin > last_fat


class TestFabricValidation:
    def test_unknown_fabric_rejected(self):
        with pytest.raises(ValueError):
            Topology(4, fabric="torus")

    def test_all_fabrics_enumerated(self):
        assert set(FABRICS) == {"p2p", "ring", "switch"}

    @pytest.mark.parametrize("fabric", FABRICS)
    def test_channels_listing_covers_fabric(self, fabric):
        topo = Topology(3, fabric=fabric)
        names = [c.name for c in reached_channels(topo)]
        assert len(names) == len(set(names))
        if fabric == "switch":
            assert "nvswitch" in names
        if fabric == "ring":
            assert any(n.startswith("ring:") for n in names)


class TestEndToEndFabrics:
    @pytest.mark.parametrize("fabric", FABRICS)
    def test_simulation_completes_on_every_fabric(self, fabric):
        cfg = scheme_config("batching", n_gpus=4)
        cfg = replace(cfg, link=LinkConfig(fabric=fabric))
        trace = get_workload("stencil2d").generate(4, seed=1, scale=0.1)
        report = run_workload(cfg, trace)
        assert report.execution_cycles > 0

    def test_ring_is_slower_than_p2p_for_all_to_all(self):
        def run(fabric):
            cfg = replace(scheme_config("unsecure", n_gpus=4), link=LinkConfig(fabric=fabric))
            trace = get_workload("mt").generate(4, seed=1, scale=0.15)
            return run_workload(cfg, trace).execution_cycles

        assert run("ring") > run("p2p")
