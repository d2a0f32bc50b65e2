"""Async admission queue and dedup scheduler over :class:`SweepRunner`.

:class:`SimulationService` is the long-lived core behind ``repro-sim
serve``: an asyncio front end that turns independent client submissions
into the same batched, cached, trace-sharing execution a one-shot sweep
gets from :class:`~repro.runner.sweep.SweepRunner`.  The scheduling policy
(full rationale in ``docs/SERVICE.md``):

* **cache short-circuit** — a submission whose
  :func:`~repro.runner.jobs.job_key` is already in the
  :class:`~repro.runner.cache.ResultCache` is answered immediately,
  without occupying a queue slot;
* **single-flight dedup** — identical cells submitted while one is queued
  or running coalesce onto that execution: one simulation, every
  subscriber gets the full report;
* **bounded admission with explicit backpressure** — at most ``max_queue``
  executions may be queued; past that, submissions are rejected with a
  structured ``queue_full`` error carrying ``retry_after_s`` (an EWMA of
  recent batch wall time), never dropped silently;
* **per-client fairness** — admission runs through
  :class:`~repro.service.queues.ClientRoundRobin`: round-robin across
  clients, FIFO within a client — so one bulk submitter cannot starve
  another client;
* **trace-key batching** — when an execution is dispatched, every queued
  execution sharing its :func:`~repro.runner.trace_store.job_trace_key`
  rides along in the same batch (exactly the grouping
  ``SweepRunner._group_by_trace`` applies), so cells that differ only in
  scheme replay one generated trace;
* **cancellation and deadlines** — a queued ticket cancels instantly; an
  in-flight ticket detaches (the simulation completes and warms the cache
  for the next asker).  A ``deadline_s`` submission whose deadline lapses
  resolves with a structured ``deadline_exceeded`` error, never a hang;
* **graceful drain** — :meth:`drain` stops admission (``draining``
  rejections) and completes every admitted execution before returning.

Batches run on a single worker thread (``run_jobs`` is synchronous and
the runner's stats are not thread-safe); parallelism *within* a batch is
the runner's own process pool, governed by ``jobs``.  Because every
report is produced by the same ``SweepRunner.run_jobs`` path a direct CLI
invocation uses, a served report is byte-identical (canonical JSON) to
the same cell run directly — the determinism contract ``tests/
test_service.py`` asserts.

Scheduler health is observable through the ``service.*`` namespace on
:attr:`SimulationService.telemetry` (queue-depth gauge, admission /
rejection / coalescing / serving counters, queue and batch latency
histograms); ``repro-sim status --metrics`` exports it from a live
server in the standard format ``repro-sim metrics dump`` reads.
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Sequence

from repro.configs import scheme_config
from repro.obs import Telemetry
from repro.runner import ResultCache, SweepJob, SweepRunner, job_key
from repro.runner.trace_store import job_trace_key
from repro.service.queues import ClientRoundRobin
from repro.system import SimulationReport
from repro.workloads import get_workload

#: Edges (milliseconds) of the ``service.latency.*`` histograms.
LATENCY_EDGES_MS = [10, 50, 250, 1000, 5000, 30000]

#: Every state a ticket can be in.
TICKET_STATES = ("queued", "running", "done", "cancelled", "expired", "failed")

#: Finished tickets kept for ``status`` lookups before being forgotten.
HISTORY_LIMIT = 1024


class ServiceError(Exception):
    """A structured, client-visible scheduling failure."""

    def __init__(self, code: str, message: str, retry_after_s: float | None = None) -> None:
        super().__init__(message)
        self.code = code
        self.retry_after_s = retry_after_s


def job_from_spec(spec: dict[str, Any]) -> SweepJob:
    """Build the :class:`SweepJob` a validated wire submission describes.

    Raises :class:`KeyError` for a workload the registry does not know —
    the server maps that to an ``unknown_workload`` response.
    """
    return SweepJob(
        spec=get_workload(spec["workload"]),
        config=scheme_config(spec["scheme"], n_gpus=spec["gpus"]),
        seed=spec["seed"],
        scale=spec["scale"],
        n_lanes=spec["n_lanes"],
    )


@dataclass
class Ticket:
    """One client submission: its identity, its future, its lifecycle."""

    job_id: str
    client: str
    job: SweepJob
    future: asyncio.Future
    state: str = "queued"
    source: str = "run"  # "run" | "coalesced" | "cache"
    submitted_at: float = field(default_factory=perf_counter)
    deadline_handle: asyncio.TimerHandle | None = None
    report: SimulationReport | None = None
    execution: "_Execution | None" = None

    def describe(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "client": self.client,
            "cell": self.job.describe(),
            "state": self.state,
            "source": self.source,
        }


class _Execution:
    """One unit of simulation work and the tickets subscribed to it."""

    __slots__ = ("job", "key", "trace_key", "tickets", "state")

    def __init__(self, job: SweepJob, key: object) -> None:
        self.job = job
        self.key = key  # job_key string, or the SweepJob itself when uncacheable
        self.trace_key = job_trace_key(job)
        self.tickets: list[Ticket] = []
        self.state = "queued"

    def live_tickets(self) -> list[Ticket]:
        return [t for t in self.tickets if not t.future.done()]


class SimulationService:
    """The async scheduler: admission, dedup, batching, fairness, drain.

    ``jobs`` / ``mode`` / ``cache`` configure the underlying
    :class:`SweepRunner`; ``max_queue`` bounds admitted-but-unstarted
    executions; ``run_batch`` (tests only) replaces the synchronous batch
    executor.  Use as an async context manager, or call :meth:`start` /
    :meth:`stop` explicitly from a running event loop.
    """

    def __init__(
        self,
        *,
        jobs: int | None = None,
        cache: ResultCache | None = None,
        max_queue: int = 64,
        mode: str = "auto",
        run_batch: Callable[[list[SweepJob]], list[SimulationReport]] | None = None,
    ) -> None:
        self.runner = SweepRunner(jobs=jobs, cache=cache, mode=mode)
        self.cache = cache
        self.max_queue = max_queue
        self.telemetry = Telemetry()
        self._run_batch = run_batch or self.runner.run_jobs
        self._executor: ThreadPoolExecutor | None = None
        self._dispatcher: asyncio.Task | None = None
        self._wake = asyncio.Event()
        self._drained = asyncio.Event()
        self._draining = False
        self._running = False
        # admission state: round-robin clients, FIFO per client
        self._queue = ClientRoundRobin()
        self._inflight: dict[object, _Execution] = {}  # key -> queued/running execution
        self._batch_in_flight = False
        # ticket registry (bounded history)
        self._tickets: dict[str, Ticket] = {}
        self._finished: deque[str] = deque()
        self._next_id = 0
        self._batch_ewma_s = 1.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._draining = False
        self._drained.clear()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service"
        )
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())

    async def stop(self) -> None:
        """Hard stop: cancel the dispatcher, release the worker thread."""
        self._running = False
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except (asyncio.CancelledError, Exception):
                pass
            self._dispatcher = None
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    async def drain(self) -> None:
        """Stop admitting, finish every admitted execution, then return."""
        self._draining = True
        self._wake.set()
        if len(self._queue) == 0 and not self._batch_in_flight:
            self._drained.set()
        await self._drained.wait()

    async def __aenter__(self) -> "SimulationService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # Submission / cancellation / introspection
    # ------------------------------------------------------------------
    def submit(
        self,
        job: SweepJob,
        *,
        client: str = "anonymous",
        deadline_s: float | None = None,
    ) -> Ticket:
        """Admit one cell; returns its :class:`Ticket` (await ``.future``).

        Raises :class:`ServiceError` with code ``draining`` or
        ``queue_full`` (both retryable rejections).
        """
        self.telemetry.counter("service.submitted").add(1)
        loop = asyncio.get_running_loop()
        ticket = Ticket(
            job_id=self._issue_id(),
            client=client,
            job=job,
            future=loop.create_future(),
        )
        # A submission nobody awaits (wait=false, cancels, drains) must not
        # warn "exception was never retrieved" at teardown.
        ticket.future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        if self._draining:
            self.telemetry.counter("service.rejected").add(1)
            raise ServiceError("draining", "server is draining; resubmit elsewhere/later")

        key: object = job_key(job)
        if key is None:
            key = job  # uncacheable cells still dedup structurally
        # 1. completed cells short-circuit through the persistent cache
        elif self.cache is not None:
            cached = self.cache.load(key)
            if cached is not None:
                self.telemetry.counter("service.cache_hits").add(1)
                self._register(ticket)
                self._resolve(ticket, cached, source="cache")
                return ticket
        # 2. identical in-flight cells coalesce to one execution
        execution = self._inflight.get(key)
        if execution is not None:
            self.telemetry.counter("service.coalesced").add(1)
            ticket.source = "coalesced"
            ticket.state = execution.state
            ticket.execution = execution
            execution.tickets.append(ticket)
            self._register(ticket)
            self._arm_deadline(ticket, deadline_s, execution)
            return ticket
        # 3. bounded admission: reject-with-retry-after, never drop
        if len(self._queue) >= self.max_queue:
            self.telemetry.counter("service.rejected").add(1)
            raise ServiceError(
                "queue_full",
                f"admission queue is full ({self.max_queue} executions)",
                retry_after_s=round(max(0.1, self._batch_ewma_s), 3),
            )
        self.telemetry.counter("service.admitted").add(1)
        execution = _Execution(job, key)
        ticket.execution = execution
        execution.tickets.append(ticket)
        self._inflight[key] = execution
        self._queue.push(execution, client=client)
        self.telemetry.gauge("service.queue.depth").set(len(self._queue))
        self._register(ticket)
        self._arm_deadline(ticket, deadline_s, execution)
        self._wake.set()
        return ticket

    def submit_spec(self, request: dict[str, Any]) -> Ticket:
        """Admit a validated wire submission (see :func:`job_from_spec`)."""
        return self.submit(
            job_from_spec(request["job"]),
            client=request.get("client", "anonymous"),
            deadline_s=request.get("deadline_s"),
        )

    def cancel(self, job_id: str) -> str:
        """Cancel a submission; returns the ticket's resulting state.

        A queued ticket is resolved ``cancelled`` immediately (and its
        execution is dequeued when no other subscriber remains); an
        in-flight ticket detaches — the simulation completes, warms the
        cache, and only this subscriber sees ``cancelled``.  Finished
        tickets are left untouched.
        """
        ticket = self._tickets.get(job_id)
        if ticket is None:
            raise ServiceError("unknown_job", f"no such job {job_id!r}")
        if ticket.future.done():
            return ticket.state
        self.telemetry.counter("service.cancelled").add(1)
        self._reject(ticket, ServiceError("cancelled", f"job {job_id} cancelled"), "cancelled")
        self._detach(ticket)
        return ticket.state

    def status(self, job_id: str | None = None) -> dict[str, Any]:
        """Queue snapshot, or one ticket's state when ``job_id`` is given."""
        if job_id is not None:
            ticket = self._tickets.get(job_id)
            if ticket is None:
                raise ServiceError("unknown_job", f"no such job {job_id!r}")
            return {"job": ticket.describe()}
        states: dict[str, int] = {}
        for ticket in self._tickets.values():
            states[ticket.state] = states.get(ticket.state, 0) + 1
        return {
            "queue_depth": len(self._queue),
            "max_queue": self.max_queue,
            "draining": self._draining,
            "states": states,
            "jobs": [
                t.describe()
                for t in self._tickets.values()
                if t.state in ("queued", "running")
            ],
        }

    def metrics_snapshot(self) -> dict[str, dict]:
        """The ``service.*`` registry snapshot (deterministic, JSON-safe)."""
        return self.telemetry.snapshot()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _issue_id(self) -> str:
        self._next_id += 1
        return f"j{self._next_id:06d}"

    def _register(self, ticket: Ticket) -> None:
        self._tickets[ticket.job_id] = ticket
        ticket.future.add_done_callback(lambda _f: self._remember(ticket))

    def _remember(self, ticket: Ticket) -> None:
        """Move a finished ticket into bounded history."""
        self._finished.append(ticket.job_id)
        while len(self._finished) > HISTORY_LIMIT:
            self._tickets.pop(self._finished.popleft(), None)

    def _arm_deadline(
        self, ticket: Ticket, deadline_s: float | None, execution: _Execution
    ) -> None:
        if deadline_s is None:
            return
        loop = asyncio.get_running_loop()
        ticket.deadline_handle = loop.call_later(deadline_s, self._expire, ticket)

    def _expire(self, ticket: Ticket) -> None:
        if ticket.future.done():
            return
        self.telemetry.counter("service.expired").add(1)
        self._reject(
            ticket,
            ServiceError(
                "deadline_exceeded", f"job {ticket.job_id} missed its deadline"
            ),
            "expired",
        )
        self._detach(ticket)

    def _reject(self, ticket: Ticket, exc: ServiceError, state: str) -> None:
        ticket.state = state
        if ticket.deadline_handle is not None:
            ticket.deadline_handle.cancel()
            ticket.deadline_handle = None
        if not ticket.future.done():
            ticket.future.set_exception(exc)

    def _resolve(self, ticket: Ticket, report: SimulationReport, source: str | None = None) -> None:
        ticket.state = "done"
        if source is not None:
            ticket.source = source
        if ticket.deadline_handle is not None:
            ticket.deadline_handle.cancel()
            ticket.deadline_handle = None
        ticket.report = report
        self.telemetry.counter("service.served").add(1)
        self.telemetry.histogram("service.latency.queue_ms", LATENCY_EDGES_MS).record(
            (perf_counter() - ticket.submitted_at) * 1000.0
        )
        if not ticket.future.done():
            ticket.future.set_result(report)

    def _detach(self, ticket: Ticket) -> None:
        """Drop a dead ticket from its execution; dequeue orphaned work."""
        execution = ticket.execution
        if execution is None:
            return  # cache-hit tickets never joined an execution
        if execution.state == "queued" and not execution.live_tickets():
            if self._queue.remove(execution):
                self.telemetry.gauge("service.queue.depth").set(len(self._queue))
            self._inflight.pop(execution.key, None)
            if self._draining:
                self._wake.set()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _take_batch(self) -> list[_Execution]:
        """Next round-robin execution plus every queued trace-key sibling
        (siblings ride along regardless of their client — the trace is
        loaded anyway, and a free ride cannot delay the head)."""
        head = self._queue.pop()
        if head is None:
            return []
        batch = [head]
        if head.trace_key is not None:
            batch.extend(self._queue.take(lambda e: e.trace_key == head.trace_key))
        self.telemetry.gauge("service.queue.depth").set(len(self._queue))
        for execution in batch:
            execution.state = "running"
            for ticket in execution.tickets:
                if not ticket.future.done():
                    ticket.state = "running"
        return batch

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._wake.wait()
            self._wake.clear()
            while True:
                batch = self._take_batch()
                if not batch:
                    break
                self._batch_in_flight = True
                try:
                    await self._execute(loop, batch)
                finally:
                    self._batch_in_flight = False
            if self._draining and len(self._queue) == 0:
                self._drained.set()
                return

    async def _execute(self, loop: asyncio.AbstractEventLoop, batch: list[_Execution]) -> None:
        jobs = [execution.job for execution in batch]
        started = perf_counter()
        try:
            reports = await loop.run_in_executor(self._executor, self._run_batch, jobs)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self.telemetry.counter("service.failed").add(len(batch))
            failure = ServiceError("execution_failed", f"batch failed: {exc}")
            for execution in batch:
                execution.state = "failed"
                del self._inflight[execution.key]
                for ticket in execution.tickets:
                    if not ticket.future.done():
                        self._reject(ticket, failure, "failed")
            return
        elapsed = perf_counter() - started
        self._batch_ewma_s = 0.7 * self._batch_ewma_s + 0.3 * elapsed
        self.telemetry.counter("service.batches").add(1)
        self.telemetry.histogram("service.latency.run_ms", LATENCY_EDGES_MS).record(
            elapsed * 1000.0
        )
        for execution, report in zip(batch, reports):
            execution.state = "done"
            del self._inflight[execution.key]
            for ticket in execution.tickets:
                if not ticket.future.done():
                    self._resolve(ticket, report)


__all__ = [
    "HISTORY_LIMIT",
    "LATENCY_EDGES_MS",
    "TICKET_STATES",
    "ServiceError",
    "SimulationService",
    "Ticket",
    "job_from_spec",
]
