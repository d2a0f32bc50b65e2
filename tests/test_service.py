"""Tests for the simulation service: protocol, scheduler, server.

The load-bearing contracts (``docs/SERVICE.md``):

* a report served through the queue is **byte-identical** (canonical
  JSON) to the same cell run directly through ``SweepRunner``;
* identical concurrent submissions **coalesce to one execution** and
  every subscriber receives the full report;
* a full admission queue **rejects with a structured retry-after
  error** — nothing is silently dropped;
* cancellation works on queued and in-flight jobs, deadlines surface a
  structured ``deadline_exceeded`` error (never a hang), and drain
  completes every admitted execution.

Scheduler tests drive :class:`SimulationService` directly inside
``asyncio.run``; the end-to-end test goes through a real Unix socket.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.configs import scheme_config
from repro.runner import ResultCache, SweepJob, SweepRunner, report_to_dict
from repro.service import (
    ServiceClient,
    ServiceError,
    SimulationServer,
    SimulationService,
    canonical_report_json,
)
from repro.service import protocol
from repro.service.queues import ClientRoundRobin
from repro.workloads import get_workload

GPUS = 2
SCALE = 0.05


def _job(scheme: str = "unsecure", seed: int = 1, workload: str = "fir") -> SweepJob:
    return SweepJob(
        spec=get_workload(workload),
        config=scheme_config(scheme, n_gpus=GPUS),
        seed=seed,
        scale=SCALE,
    )


def _direct(*jobs: SweepJob):
    return SweepRunner(jobs=1).run_jobs(list(jobs))


def _counter(service: SimulationService, name: str) -> int:
    snapshot = service.metrics_snapshot()
    return snapshot.get(name, {}).get("value", 0)


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_encode_decode_roundtrip(self):
        message = {"op": "ping", "n": 3, "nested": {"b": [1, 2]}}
        assert protocol.decode(protocol.encode(message)) == message

    def test_decode_rejects_non_json_and_non_object(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"not json\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"[1, 2]\n")

    def test_validate_rejects_unknown_op(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_request({"op": "frobnicate"})

    def test_validate_submit_fills_defaults(self):
        request = protocol.validate_request(
            {"op": "submit", "job": {"workload": "fir"}}
        )
        assert request["job"] == {
            "workload": "fir", "scheme": "batching", "gpus": 4,
            "seed": 1, "scale": 1.0, "n_lanes": 8,
        }
        assert request["wait"] is True and request["deadline_s"] is None

    @pytest.mark.parametrize("bad", [
        {"op": "submit"},                                            # no job
        {"op": "submit", "job": {"workload": "fir", "scheme": "rot13"}},
        {"op": "submit", "job": {"workload": "fir", "gpus": 1}},
        {"op": "submit", "job": {"workload": "fir", "scale": -1}},
        {"op": "submit", "job": {"workload": "fir"}, "deadline_s": 0},
        {"op": "submit", "job": {"workload": "fir"}, "wait": "yes"},
        {"op": "cancel"},                                            # no job_id
    ])
    def test_validate_rejects_malformed_requests(self, bad):
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_request(bad)

    def test_error_response_requires_known_code(self):
        response = protocol.error("queue_full", "full", retry_after_s=1.5)
        assert response["ok"] is False
        assert response["error"]["code"] == "queue_full"
        assert response["error"]["retry_after_s"] == 1.5
        with pytest.raises(ValueError):
            protocol.error("made_up_code", "nope")

    def test_canonical_json_same_for_report_and_dict(self):
        report = _direct(_job())[0]
        assert canonical_report_json(report) == canonical_report_json(
            report_to_dict(report)
        )


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
class TestScheduler:
    def test_served_report_byte_identical_to_direct_runner(self):
        async def scenario():
            async with SimulationService() as service:
                ticket = service.submit(_job("batching"))
                return await ticket.future

        served = asyncio.run(scenario())
        direct = _direct(_job("batching"))[0]
        assert canonical_report_json(served) == canonical_report_json(direct)

    def test_identical_submissions_coalesce_to_one_execution(self):
        batches: list[list[SweepJob]] = []
        runner = SweepRunner(jobs=1)

        def recording(jobs):
            batches.append(list(jobs))
            return runner.run_jobs(jobs)

        async def scenario():
            async with SimulationService(run_batch=recording) as service:
                first = service.submit(_job(), client="alice")
                second = service.submit(_job(), client="bob")  # identical cell
                reports = await asyncio.gather(first.future, second.future)
                assert second.source == "coalesced"
                assert _counter(service, "service.coalesced") == 1
                assert _counter(service, "service.served") == 2
                return reports

        first_report, second_report = asyncio.run(scenario())
        assert len(batches) == 1 and len(batches[0]) == 1  # one execution total
        # both clients got the full report, byte-identical to direct
        expected = canonical_report_json(_direct(_job())[0])
        assert canonical_report_json(first_report) == expected
        assert canonical_report_json(second_report) == expected

    def test_completed_cells_short_circuit_through_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(jobs=1, cache=cache).run_jobs([_job()])  # warm the cache

        def explode(jobs):
            raise AssertionError("cache hit must not execute")

        async def scenario():
            async with SimulationService(cache=cache, run_batch=explode) as service:
                ticket = service.submit(_job())
                report = await ticket.future
                assert ticket.source == "cache"
                assert _counter(service, "service.cache_hits") == 1
                return report

        report = asyncio.run(scenario())
        assert canonical_report_json(report) == canonical_report_json(_direct(_job())[0])

    def test_queue_full_rejected_with_retry_after(self):
        async def scenario():
            service = SimulationService(max_queue=1)  # never started: queue holds
            service.submit(_job(seed=1))
            with pytest.raises(ServiceError) as excinfo:
                service.submit(_job(seed=2))
            assert excinfo.value.code == "queue_full"
            assert excinfo.value.retry_after_s > 0
            assert _counter(service, "service.rejected") == 1

        asyncio.run(scenario())

    def test_draining_rejects_new_submissions(self):
        async def scenario():
            async with SimulationService() as service:
                await service.drain()
                with pytest.raises(ServiceError) as excinfo:
                    service.submit(_job())
                assert excinfo.value.code == "draining"

        asyncio.run(scenario())

    def test_cancel_queued_job(self):
        async def scenario():
            service = SimulationService()  # never started: stays queued
            ticket = service.submit(_job())
            assert service.status()["queue_depth"] == 1
            assert service.cancel(ticket.job_id) == "cancelled"
            assert service.status()["queue_depth"] == 0  # execution dequeued
            with pytest.raises(ServiceError) as excinfo:
                await ticket.future
            assert excinfo.value.code == "cancelled"

        asyncio.run(scenario())

    def test_cancel_inflight_job_detaches_but_execution_completes(self):
        release = threading.Event()
        executed: list[int] = []
        runner = SweepRunner(jobs=1)

        def gated(jobs):
            release.wait(timeout=30)
            executed.append(len(jobs))
            return runner.run_jobs(jobs)

        async def scenario():
            async with SimulationService(run_batch=gated) as service:
                ticket = service.submit(_job())
                while ticket.state != "running":  # dispatcher picks it up
                    await asyncio.sleep(0.01)
                assert service.cancel(ticket.job_id) == "cancelled"
                with pytest.raises(ServiceError) as excinfo:
                    await ticket.future  # resolved instantly, no hang
                assert excinfo.value.code == "cancelled"
                release.set()
                await service.drain()  # the execution itself still completes

        asyncio.run(scenario())
        assert executed == [1]

    def test_cancel_unknown_job_is_structured(self):
        async def scenario():
            async with SimulationService() as service:
                with pytest.raises(ServiceError) as excinfo:
                    service.cancel("j999999")
                assert excinfo.value.code == "unknown_job"

        asyncio.run(scenario())

    def test_deadline_surfaces_structured_error_not_a_hang(self):
        async def scenario():
            service = SimulationService()  # never started: job can't finish
            ticket = service.submit(_job(), deadline_s=0.05)
            with pytest.raises(ServiceError) as excinfo:
                await asyncio.wait_for(ticket.future, timeout=5.0)
            assert excinfo.value.code == "deadline_exceeded"
            assert ticket.state == "expired"
            assert _counter(service, "service.expired") == 1

        asyncio.run(scenario())

    def test_failed_batch_resolves_tickets_with_execution_failed(self):
        def explode(jobs):
            raise RuntimeError("worker crashed")

        async def scenario():
            async with SimulationService(run_batch=explode) as service:
                ticket = service.submit(_job())
                with pytest.raises(ServiceError) as excinfo:
                    await ticket.future
                assert excinfo.value.code == "execution_failed"
                assert _counter(service, "service.failed") == 1

        asyncio.run(scenario())

    def test_clients_drain_round_robin(self):
        batches: list[list[str]] = []
        runner = SweepRunner(jobs=1)

        def recording(jobs):
            batches.append([job.describe() for job in jobs])
            return runner.run_jobs(jobs)

        async def scenario():
            async with SimulationService(run_batch=recording) as service:
                # distinct workloads so no trace key is shared across cells
                tickets = [
                    service.submit(_job(workload="fir", seed=1), client="alice"),
                    service.submit(_job(workload="fir", seed=2), client="alice"),
                    service.submit(_job(workload="matrixmultiplication", seed=1), client="bob"),
                    service.submit(_job(workload="matrixmultiplication", seed=2), client="bob"),
                ]
                await asyncio.gather(*(t.future for t in tickets))

        asyncio.run(scenario())
        owners = ["alice" if "fir" in batch[0] else "bob" for batch in batches]
        assert owners == ["alice", "bob", "alice", "bob"]  # interleaved, not FIFO

    def test_trace_key_siblings_batch_together(self):
        batches: list[list[SweepJob]] = []
        runner = SweepRunner(jobs=1)

        def recording(jobs):
            batches.append(list(jobs))
            return runner.run_jobs(jobs)

        async def scenario():
            async with SimulationService(run_batch=recording) as service:
                tickets = [
                    # same (workload, gpus, seed, scale) -> same trace key
                    service.submit(_job("unsecure"), client="alice"),
                    service.submit(_job("private"), client="bob"),
                    service.submit(_job("batching"), client="alice"),
                    # different seed -> different trace key, separate batch
                    service.submit(_job("unsecure", seed=9), client="bob"),
                ]
                await asyncio.gather(*(t.future for t in tickets))

        asyncio.run(scenario())
        assert sorted(len(batch) for batch in batches) == [1, 3]

    def test_drain_completes_every_admitted_execution(self):
        async def scenario():
            async with SimulationService() as service:
                tickets = [service.submit(_job(scheme)) for scheme in
                           ("unsecure", "private", "batching")]
                await service.drain()
                assert all(t.state == "done" for t in tickets)
                return [t.report for t in tickets]

        reports = asyncio.run(scenario())
        assert all(report is not None for report in reports)


# ----------------------------------------------------------------------
# End-to-end over a real Unix socket
# ----------------------------------------------------------------------
class TestServerEndToEnd:
    def test_submit_status_metrics_cancel_over_socket(self, tmp_path):
        socket_path = tmp_path / "service.sock"

        def client_session():
            with ServiceClient(socket_path, timeout=120.0) as client:
                assert client.ping()["ok"]

                served = client.submit(
                    "fir", scheme="batching", gpus=GPUS, scale=SCALE, client="e2e"
                )
                assert served["ok"] and served["state"] == "done"

                # job lookups: known id resolves, unknown id is structured
                looked_up = client.status(served["job_id"])
                assert looked_up["ok"] and looked_up["job"]["state"] == "done"
                missing = client.status("j999999")
                assert not missing["ok"]
                assert missing["error"]["code"] == "unknown_job"
                cancel_missing = client.cancel("j999999")
                assert cancel_missing["error"]["code"] == "unknown_job"

                # malformed line -> structured bad_request, connection lives
                bad = client.request({"op": "submit"})
                assert not bad["ok"] and bad["error"]["code"] == "bad_request"
                unknown = client.request(
                    {"op": "submit", "job": {"workload": "definitely-not-real"}}
                )
                assert unknown["error"]["code"] == "unknown_workload"

                metrics = client.metrics()
                assert metrics["ok"]
                assert metrics["metrics"]["service.served"]["value"] == 1
                snapshot = client.status()
                assert snapshot["ok"] and snapshot["queue_depth"] == 0
                return served

        async def scenario():
            service = SimulationService()
            server = SimulationServer(service, socket_path)
            await server.start()
            try:
                return await asyncio.to_thread(client_session)
            finally:
                await server.drain_and_stop()

        served = asyncio.run(scenario())
        direct = _direct(_job("batching"))[0]
        assert canonical_report_json(served["report"]) == canonical_report_json(direct)
        assert not socket_path.exists()  # drain_and_stop removed the socket

    def test_concurrent_identical_submissions_over_socket(self, tmp_path):
        socket_path = tmp_path / "service.sock"
        release = threading.Event()
        executions: list[int] = []
        runner = SweepRunner(jobs=1)

        def gated(jobs):
            release.wait(timeout=30)
            executions.append(len(jobs))
            return runner.run_jobs(jobs)

        def submit_once(name):
            with ServiceClient(socket_path, timeout=120.0) as client:
                return client.submit(
                    "fir", scheme="unsecure", gpus=GPUS, scale=SCALE, client=name
                )

        async def scenario():
            service = SimulationService(run_batch=gated)
            server = SimulationServer(service, socket_path)
            await server.start()
            try:
                first = asyncio.create_task(asyncio.to_thread(submit_once, "alice"))
                second = asyncio.create_task(asyncio.to_thread(submit_once, "bob"))
                while _counter(service, "service.submitted") < 2:
                    await asyncio.sleep(0.01)
                release.set()  # both submissions are in; let the batch run
                responses = await asyncio.gather(first, second)
                assert _counter(service, "service.coalesced") == 1
                return responses
            finally:
                release.set()
                await server.drain_and_stop()

        responses = asyncio.run(scenario())
        assert executions == [1]  # single-flight: one execution for two clients
        expected = canonical_report_json(_direct(_job())[0])
        for response in responses:
            assert response["ok"], response
            assert canonical_report_json(response["report"]) == expected


# ----------------------------------------------------------------------
# Fair queuing (docs/SERVICE.md: round-robin across clients, FIFO within)
# ----------------------------------------------------------------------
class TestClientRoundRobin:
    def _drain(self, queue: ClientRoundRobin) -> list:
        items = []
        while (item := queue.pop()) is not None:
            items.append(item)
        return items

    def test_round_robin_fifo_per_client(self):
        queue = ClientRoundRobin()
        for n in (1, 2, 3):
            queue.push(f"a{n}", client="alice")
        queue.push("b1", client="bob")
        queue.push("b2", client="bob")
        assert self._drain(queue) == ["a1", "b1", "a2", "b2", "a3"]

    def test_bulk_client_cannot_starve_peer(self):
        queue = ClientRoundRobin()
        for n in range(100):
            queue.push(f"bulk{n}", client="bulk")
        queue.push("urgent-ish", client="small")
        # The small client is served within one rotation, not after 100.
        assert queue.pop() == "bulk0"
        assert queue.pop() == "urgent-ish"

    def test_remove_and_take_keep_rotation_consistent(self):
        queue = ClientRoundRobin()
        queue.push("x1", client="alice")
        queue.push("y1", client="bob")
        queue.push("x2", client="alice")
        assert queue.remove("x1") is True
        assert queue.remove("x1") is False  # already gone
        assert queue.take(lambda item: item.startswith("y")) == ["y1"]
        assert len(queue) == 1
        # alice's emptied-then-refilled queue must not get two rotation slots
        queue.push("x3", client="alice")
        assert self._drain(queue) == ["x2", "x3"]
        assert len(queue) == 0

    def test_iter_sees_every_queued_item(self):
        queue = ClientRoundRobin()
        queue.push("a", client="alice")
        queue.push("b", client="bob")
        assert sorted(queue) == ["a", "b"]
