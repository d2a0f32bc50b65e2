"""Statistics primitive tests."""

import pytest

from repro.sim.stats import Counter, Gauge, Histogram, IntervalSeries, RatioStat


def test_counter_add_and_reset():
    c = Counter("bytes")
    c.add()
    c.add(41)
    assert c.value == 42
    c.reset()
    assert c.value == 0


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
    assert h.mean == pytest.approx(14.0)


def test_histogram_labels():
    h = Histogram("h", edges=[40, 160])
    assert h.bin_labels() == ["[-inf, 40)", "[40, 160)", "[160, inf)"]


def test_histogram_underflow_bin_catches_negatives():
    # bisect_right sends anything below edges[0] — negatives included —
    # to bin 0, so its label must read [-inf, ...), not [0, ...).
    h = Histogram("h", edges=[40, 160])
    for v in (-5, 0, 39):
        h.record(v)
    assert h.counts == [3, 0, 0]
    assert h.bin_labels()[0] == "[-inf, 40)"


def test_histogram_rejects_unsorted_edges():
    with pytest.raises(ValueError):
        Histogram("bad", edges=[5, 1])


def test_interval_series_bucketing():
    s = IntervalSeries("sendrecv", interval=100)
    s.record(5, "send")
    s.record(99, "send")
    s.record(100, "recv")
    s.record(250, "send", amount=3)
    assert s.series("send", 3) == [2.0, 0.0, 3.0]
    assert s.series("recv", 3) == [0.0, 1.0, 0.0]
    assert s.n_buckets() == 3


def test_interval_series_stacked_fractions():
    s = IntervalSeries("dest", interval=10)
    s.record(0, "gpu2", 3)
    s.record(0, "gpu3", 1)
    s.record(15, "gpu2", 2)
    fracs = s.stacked_fractions()
    assert fracs["gpu2"][0] == pytest.approx(0.75)
    assert fracs["gpu3"][0] == pytest.approx(0.25)
    assert fracs["gpu2"][1] == pytest.approx(1.0)


def test_interval_series_rejects_bad_interval():
    with pytest.raises(ValueError):
        IntervalSeries("x", interval=0)


def test_ratio_stat_fractions():
    r = RatioStat("otp")
    r.record("hit", 3)
    r.record("partial")
    r.record("miss", 6)
    assert r.total == 10
    assert r.fraction("hit") == pytest.approx(0.3)
    fr = r.fractions()
    assert sum(fr.values()) == pytest.approx(1.0)


def test_ratio_stat_merge():
    a = RatioStat("a")
    a.record("hit", 2)
    b = RatioStat("b")
    b.record("hit", 1)
    b.record("miss", 1)
    a.merge(b)
    assert a.counts == {"hit": 3, "miss": 1}


def test_ratio_stat_empty_fraction_is_zero():
    assert RatioStat("e").fraction("hit") == 0.0
