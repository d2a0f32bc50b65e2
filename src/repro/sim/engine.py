"""Heap-based discrete-event simulation engine.

The simulator advances a cycle-granularity clock (1 cycle = 1 ns at the
paper's 1 GHz shader clock) by popping the earliest pending event and
invoking its callback.  Components never busy-wait: everything that takes
time — link serialization, AES-GCM pad generation, HBM access — is expressed
as an event scheduled at an absolute cycle.

Events scheduled for the same cycle run in FIFO order of scheduling, which
keeps runs fully deterministic for a fixed workload seed.

The heap stores plain ``(time, seq, item)`` tuples; ``seq`` is unique, so
every comparison resolves on the first one or two integer elements at C
speed.  ``item`` comes in two flavors, reflecting the two kinds of
scheduling the components actually do:

* a bare **callable** — the common case (``post``/``post_at``): a one-shot
  callback that nothing will ever cancel.  No handle object is allocated
  at all; the callable itself sits in the heap entry.
* an :class:`Event` handle — the cancellable case (``schedule``/
  ``schedule_at``): a ``__slots__`` object that exists only to support
  cancellation and introspection (the GPU wakeup-timer pattern).

Both flavors share one ``seq`` counter, so FIFO-per-cycle ordering holds
across them.  The no-handle path skips an object allocation plus three
attribute stores per event, at hundreds of thousands of events per cell.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from typing import Callable


class SimulationError(RuntimeError):
    """Raised when the engine detects an inconsistent schedule."""


class Event:
    """Handle for a single *cancellable* scheduled callback.

    ``cancelled`` events stay in the heap but are skipped when popped
    (lazy deletion), which is cheaper than heap surgery.
    """

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: int, seq: int, callback: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"Event(time={self.time}, seq={self.seq}{state})"


class Simulator:
    """The simulation kernel: a clock plus a heap of scheduled callbacks.

    Components hold a reference to the simulator and call :meth:`post`
    (relative delay, no handle) / :meth:`post_at` (absolute cycle, no
    handle) on hot paths, or :meth:`schedule` / :meth:`schedule_at` when
    they need a cancellable :class:`Event` handle back.  ``run`` drains
    the heap until it is empty.

    ``pushes`` (events ever scheduled, which is also the next event's
    sequence number), ``events_processed`` and ``cancelled`` (cancelled
    entries the run loop discarded) are the engine's push/pop/cancel
    profile, exported as the ``engine.*`` metrics.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self.events_processed: int = 0
        self.pushes: int = 0
        self.cancelled: int = 0
        self._heap: list[tuple[int, int, object]] = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` ``delay`` cycles from now; returns a handle."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} scheduled at cycle {self.now}")
        return self._push_event(self.now + int(delay), callback)

    def schedule_at(self, time: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute cycle ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(f"event scheduled in the past: {time} < now {self.now}")
        return self._push_event(int(time), callback)

    def _push_event(self, time: int, callback: Callable[[], None]) -> Event:
        seq = self.pushes
        self.pushes = seq + 1
        event = Event(time, seq, callback)
        heappush(self._heap, (time, seq, event))
        return event

    def post(self, delay: int, callback: Callable[[], None]) -> None:
        """Hot-path :meth:`schedule`: no cancellation handle, no allocation.

        The callable itself is the heap payload, pushed here rather than
        through a helper: one call frame less per event.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay} scheduled at cycle {self.now}")
        seq = self.pushes
        self.pushes = seq + 1
        heappush(self._heap, (self.now + int(delay), seq, callback))

    def post_at(self, time: int, callback: Callable[[], None]) -> None:
        """Hot-path :meth:`schedule_at`: no cancellation handle, no allocation."""
        if time < self.now:
            raise SimulationError(f"event scheduled in the past: {time} < now {self.now}")
        seq = self.pushes
        self.pushes = seq + 1
        heappush(self._heap, (int(time), seq, callback))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Drain the heap.  Returns the final simulation cycle.

        The loop works on the heap with everything hoisted into locals —
        this is the hottest code in the repository (every simulated cycle
        of every sweep goes through it), and attribute lookups per event
        are measurable at that volume.

        The cyclic garbage collector is paused for the duration of the
        drain: the engine's own garbage (heap tuples, packets, lambdas) is
        acyclic and freed by refcounting, so gen-0 scans during the run are
        pure overhead.  The collector is re-enabled on exit but not run:
        :class:`~repro.system.MultiGpuSystem` cuts its machine's
        back-references when its run ends, so a finished machine is acyclic
        and refcounting frees it as soon as its caller drops it.
        """
        heap = self._heap
        pop = heappop
        event_cls = Event
        processed = self.events_processed
        cancelled = 0
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while heap:
                time, _seq, item = pop(heap)
                if type(item) is event_cls:
                    if item.cancelled:
                        cancelled += 1
                        continue
                    item = item.callback
                if time < self.now:
                    raise SimulationError(
                        f"time went backwards: event at {time}, now {self.now}"
                    )
                self.now = time
                processed += 1
                item()
        finally:
            if gc_was_enabled:
                gc.enable()
            self.events_processed = processed
            self.cancelled += cancelled
        return self.now


__all__ = ["Event", "Simulator", "SimulationError"]
