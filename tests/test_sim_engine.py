"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, lambda: order.append("c"))
    sim.schedule(10, lambda: order.append("a"))
    sim.schedule(20, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_same_cycle_events_run_fifo():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(7, lambda t=tag: order.append(t))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_schedule_during_run_is_honoured():
    sim = Simulator()
    seen = []

    def first():
        seen.append(sim.now)
        sim.schedule(5, lambda: seen.append(sim.now))

    sim.schedule(10, first)
    sim.run()
    assert seen == [10, 15]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: sim.schedule_at(5, lambda: None))
    with pytest.raises(SimulationError):
        sim.run()


def test_cancelled_event_is_skipped():
    sim = Simulator()
    fired = []
    event = sim.schedule(10, lambda: fired.append("cancelled"))
    sim.schedule(20, lambda: fired.append("kept"))
    event.cancel()
    sim.run()
    assert fired == ["kept"]


def test_cancelled_head_does_not_advance_the_clock():
    sim = Simulator()
    fired = []
    sim.schedule(5, lambda: fired.append(sim.now)).cancel()
    sim.schedule(9, lambda: fired.append(sim.now))
    assert sim.run() == 9
    assert fired == [9]
    assert sim.cancelled == 1


def test_pop_compacts_heap_dominated_by_cancelled_events():
    sim = Simulator()
    fired = []
    events = [sim.schedule(t, lambda t=t: fired.append(t)) for t in range(1000)]
    for event in events:
        if event is not events[500]:
            event.cancel()
    sim.run()
    assert fired == [500]
    assert sim.events_processed == 1
    assert sim.cancelled == 999
    assert sim.pushes == 1000


def test_peek_time_drains_cancelled_prefix():
    """A run of cancelled events ahead of the first live one neither fires
    nor moves the clock: the run lands straight on the live event."""
    sim = Simulator()
    fired = []
    events = [sim.schedule(t, lambda t=t: fired.append((t, sim.now))) for t in range(10)]
    for event in events[:9]:
        event.cancel()
    assert sim.run() == 9
    assert fired == [(9, 9)]
    assert sim.events_processed == 1
    assert sim.cancelled == 9


def test_run_fires_live_events_around_a_cancelled_run():
    sim = Simulator()
    fired = []
    sim.schedule(1, lambda: fired.append(1))
    cancelled = [sim.schedule(t, lambda t=t: fired.append(t)) for t in range(2, 6)]
    sim.schedule(6, lambda: fired.append(6))
    for event in cancelled:
        event.cancel()
    sim.run()
    assert fired == [1, 6]
    assert sim.cancelled == 4


def test_all_cancelled_heap_drains_to_empty():
    sim = Simulator()
    fired = []
    for event in [sim.schedule(t, lambda: fired.append(t)) for t in range(50)]:
        event.cancel()
    assert sim.run() == 0
    assert fired == []
    assert sim.events_processed == 0
    assert sim.cancelled == 50
    sim.schedule(3, lambda: fired.append(sim.now))  # the drained heap is reusable
    sim.run()
    assert fired == [3]


def test_same_cycle_fifo_holds_across_post_and_schedule():
    """Handles and bare callables share one sequence counter, so events of
    one cycle fire in scheduling order whichever call scheduled them, and a
    cancelled handle leaves the order of the others intact."""
    sim = Simulator()
    order = []
    sim.post(4, lambda: order.append("post"))
    sim.schedule(4, lambda: order.append("schedule"))
    dropped = sim.schedule_at(4, lambda: order.append("dropped"))
    sim.post_at(4, lambda: order.append("post_at"))
    sim.schedule_at(4, lambda: order.append("schedule_at"))
    dropped.cancel()
    sim.run()
    assert order == ["post", "schedule", "post_at", "schedule_at"]
    assert sim.pushes == 5 and sim.cancelled == 1


def test_cancelled_wakeup_storm_simulation_still_correct():
    """A component that always reschedules its wakeup (the GPU lane pump
    pattern) fires only its last wakeup."""
    sim = Simulator()
    fired = []
    pending = []
    for t in range(1, 200):
        if pending:
            pending[-1].cancel()
        pending.append(sim.schedule(t, lambda t=t: fired.append(t)))
    sim.run()
    assert fired == [199]
    assert sim.events_processed == 1


def test_events_processed_counter():
    sim = Simulator()
    for i in range(7):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_processed == 7
