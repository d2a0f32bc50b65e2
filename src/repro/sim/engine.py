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


class EventQueue:
    """Priority queue of scheduled callbacks with lazy cancellation.

    ``pop`` and ``peek_time`` both compact the heap top eagerly: consecutive
    cancelled entries are dropped as soon as they surface, so a heap
    dominated by cancelled events (a common pattern for wakeup timers that
    are almost always rescheduled) never pays for them more than once.
    """

    __slots__ = ("_heap", "_seq", "cancelled_dropped")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, object]] = []
        self._seq = 0
        #: cancelled entries lazily discarded so far (pop, peek, run loop) —
        #: with ``pushes`` and the simulator's ``events_processed`` this is
        #: the engine's push/pop/cancel profile the telemetry layer exports.
        self.cancelled_dropped = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def pushes(self) -> int:
        """Total events ever scheduled on this queue."""
        return self._seq

    def push(self, time: int, callback: Callable[[], None]) -> Event:
        """Schedule a cancellable callback; returns its :class:`Event` handle."""
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback)
        heappush(self._heap, (time, seq, event))
        return event

    def pop(self) -> Event | None:
        """Pop the earliest live entry as an :class:`Event`, or None if empty.

        Bare-callback entries are wrapped in a fresh handle on the way out —
        this accessor serves ``step()`` and tests, not the run loop, which
        works on the heap directly.
        """
        heap = self._heap
        while heap:
            time, seq, item = heappop(heap)
            if type(item) is Event:
                if item.cancelled:
                    self.cancelled_dropped += 1
                    continue
            else:
                item = Event(time, seq, item)
            # Eager compaction: drain cancelled entries now at the top
            # so the next pop/peek starts from a live event.
            while heap and type(heap[0][2]) is Event and heap[0][2].cancelled:
                heappop(heap)
                self.cancelled_dropped += 1
            return item
        return None

    def peek_time(self) -> int | None:
        """Return the timestamp of the earliest live event without popping."""
        heap = self._heap
        while heap and type(heap[0][2]) is Event and heap[0][2].cancelled:
            heappop(heap)
            self.cancelled_dropped += 1
        if heap:
            return heap[0][0]
        return None


class Simulator:
    """The simulation kernel: a clock plus an event queue.

    Components hold a reference to the simulator and call :meth:`post`
    (relative delay, no handle) / :meth:`post_at` (absolute cycle, no
    handle) on hot paths, or :meth:`schedule` / :meth:`schedule_at` when
    they need a cancellable :class:`Event` handle back.  ``run`` drains
    the queue until it is empty or a cycle/event limit is hit.
    """

    def __init__(self, max_cycles: int | None = None, max_events: int | None = None) -> None:
        self.now: int = 0
        self.queue = EventQueue()
        self.max_cycles = max_cycles
        self.max_events = max_events
        self.events_processed: int = 0
        self._running = False
        self._end_hooks: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` ``delay`` cycles from now; returns a handle."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} scheduled at cycle {self.now}")
        return self.queue.push(self.now + int(delay), callback)

    def schedule_at(self, time: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute cycle ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(f"event scheduled in the past: {time} < now {self.now}")
        return self.queue.push(int(time), callback)

    def post(self, delay: int, callback: Callable[[], None]) -> None:
        """Hot-path :meth:`schedule`: no cancellation handle, no allocation.

        The callable itself is the heap payload, pushed here rather than
        through a queue method: one call frame less per event.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay} scheduled at cycle {self.now}")
        queue = self.queue
        seq = queue._seq
        queue._seq = seq + 1
        heappush(queue._heap, (self.now + int(delay), seq, callback))

    def post_at(self, time: int, callback: Callable[[], None]) -> None:
        """Hot-path :meth:`schedule_at`: no cancellation handle, no allocation."""
        if time < self.now:
            raise SimulationError(f"event scheduled in the past: {time} < now {self.now}")
        queue = self.queue
        seq = queue._seq
        queue._seq = seq + 1
        heappush(queue._heap, (int(time), seq, callback))

    def add_end_hook(self, hook: Callable[[], None]) -> None:
        """Register a hook invoked once when the run finishes."""
        self._end_hooks.append(hook)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Drain the event queue.  Returns the final simulation cycle.

        The loop works on the heap directly with everything hoisted into
        locals — this is the hottest code in the repository (every simulated
        cycle of every sweep goes through it), and attribute lookups per
        event are measurable at that volume.

        The cyclic garbage collector is paused for the duration of the
        drain: the engine's own garbage (heap tuples, packets, lambdas) is
        acyclic and freed by refcounting, so gen-0 scans during the run are
        pure overhead.  The collector is re-enabled on exit but not run:
        :class:`~repro.system.MultiGpuSystem` cuts its machine's
        back-references when its run ends, so a finished machine is acyclic
        and refcounting frees it as soon as its caller drops it.
        """
        heap = self.queue._heap
        pop = heappop
        event_cls = Event
        max_cycles = self.max_cycles
        max_events = self.max_events
        processed = self.events_processed
        cancelled = 0
        self._running = True
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while heap:
                if max_events is not None and processed >= max_events:
                    break
                time, _seq, item = pop(heap)
                if type(item) is event_cls:
                    if item.cancelled:
                        cancelled += 1
                        continue
                    item = item.callback
                if max_cycles is not None and time > max_cycles:
                    break
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
            self.queue.cancelled_dropped += cancelled
            self._running = False
        for hook in self._end_hooks:
            hook()
        return self.now

    def step(self) -> bool:
        """Process a single event.  Returns False when the queue is empty."""
        event = self.queue.pop()
        if event is None:
            return False
        self.now = event.time
        self.events_processed += 1
        event.callback()
        return True


__all__ = ["Event", "EventQueue", "Simulator", "SimulationError"]
