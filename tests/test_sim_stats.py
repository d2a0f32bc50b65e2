"""Statistics primitive tests."""

from dataclasses import replace

import pytest

from repro.configs import default_config
from repro.interconnect.packet import Packet, PacketKind
from repro.interconnect.topology import Topology
from repro.secure.channel import UnsecureTransport
from repro.sim.engine import Simulator
from repro.sim.stats import Counter, Gauge, Histogram, IntervalSeries, RatioStat


def test_counter_add_and_reset():
    c = Counter("bytes")
    c.add()
    c.add(41)
    assert c.value == 42


def test_gauge_set_overwrites():
    g = Gauge("rpki")
    assert g.value == 0.0
    g.set(1.5)
    g.set(0.25)
    assert g.value == 0.25


def test_histogram_binning_matches_paper_edges():
    h = Histogram("burst16", edges=[40, 160, 640, 2560])
    for v in [0, 39]:
        h.record(v)
    h.record(40)
    h.record(159)
    h.record(2560)
    assert h.counts == [2, 2, 0, 0, 1]
    assert h.total == 5


def test_histogram_fractions_sum_to_one():
    h = Histogram("h", edges=[10])
    for v in (1, 5, 20, 30):
        h.record(v)
    assert sum(h.fractions()) == pytest.approx(1.0)


def test_histogram_underflow_bin_catches_negatives():
    # bisect_right sends anything below edges[0] — negatives included —
    # to bin 0.
    h = Histogram("h", edges=[40, 160])
    for v in (-5, 0, 39):
        h.record(v)
    assert h.counts == [3, 0, 0]


def test_histogram_rejects_unsorted_edges():
    with pytest.raises(ValueError):
        Histogram("bad", edges=[5, 1])


def test_interval_series_bucketing():
    """The transport's timelines bucket each message by its send and its
    arrival cycle; housekeeping messages stay out."""
    cfg = replace(default_config(n_gpus=3, scheme="unsecure"), timeline_interval=100)
    sim = Simulator()
    transport = UnsecureTransport(sim, Topology(n_gpus=3), cfg)
    arrivals = []
    for node in (1, 2, 3):
        transport.register(node, lambda packet, now: arrivals.append((packet, now)))
    sends = [
        (5, 2, PacketKind.DATA_RESP),
        (99, 3, PacketKind.READ_REQ),
        (120, 2, PacketKind.SEC_ACK),  # housekeeping: no timeline bucket
        (250, 2, PacketKind.DATA_RESP),
    ]
    for now, dst, kind in sends:
        packet = Packet(kind=kind, src=1, dst=dst, size_bytes=64)
        sim.post_at(now, lambda packet=packet: transport.send(packet, sim.now))
    sim.run()
    sender = transport.timelines[1]
    assert sender.channels() == ["send", "to2", "to3"]
    assert sender.series("send") == [2.0, 0.0, 1.0]
    assert sender.series("to2") == [1.0, 0.0, 1.0]
    assert sender.series("to3", 3) == [1.0, 0.0, 0.0]
    assert sender.n_buckets() == 3
    assert len(arrivals) == 4
    for node in (2, 3):
        timeline = transport.timelines[node]
        expected = [0.0] * timeline.n_buckets()
        for packet, now in arrivals:
            if packet.dst == node and not packet.kind.housekeeping:
                expected[now // 100] += 1.0
        assert timeline.channels() == ["recv"]
        assert timeline.series("recv") == expected
    assert sum(transport.timelines[2].series("recv")) == 2.0


def test_interval_series_rejects_bad_interval():
    with pytest.raises(ValueError):
        IntervalSeries("x", interval=0)


def test_ratio_stat_fractions():
    r = RatioStat("otp", counts={"hit": 3, "partial": 1, "miss": 6})
    assert r.total == 10
    fr = r.fractions()
    assert fr["hit"] == pytest.approx(0.3)
    assert sum(fr.values()) == pytest.approx(1.0)


def test_ratio_stat_merge():
    a = RatioStat("a", counts={"hit": 2})
    b = RatioStat("b", counts={"hit": 1, "miss": 1})
    a.merge(b)
    assert a.counts == {"hit": 3, "miss": 1}
    assert a.total == 4


def test_ratio_stat_empty_fraction_is_zero():
    assert RatioStat("e").total == 0
    assert RatioStat("e", counts={"hit": 0}).fractions() == {"hit": 0.0}
