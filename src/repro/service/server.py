"""The ``repro-sim serve`` front door: NDJSON over a Unix domain socket.

:class:`SimulationServer` accepts local stream connections, reads one
JSON request per line, and answers one JSON response per line (schema in
:mod:`repro.service.protocol`, reference in ``docs/SERVICE.md``).  A
``submit`` with ``wait=true`` holds its connection open until the
scheduler resolves the ticket and then returns the full report dict;
``wait=false`` returns the job id immediately for later ``status``
polling.  Connections are independent tasks, so a client waiting on a
long simulation never blocks another client's ``status`` or ``cancel``.

:func:`run_server` is the blocking entry point the CLI calls: it builds
the :class:`~repro.service.scheduler.SimulationService`, binds the
socket, installs SIGTERM/SIGINT handlers, and on the first signal drains
gracefully — admission stops (``draining`` rejections), every admitted
execution completes and its waiters get their responses, then the
process exits 0.  A second signal aborts immediately.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
from pathlib import Path
from typing import Any

from repro.runner.serialize import report_to_dict

from repro.service import protocol
from repro.service.scheduler import ServiceError, SimulationService

#: Default socket path; override with ``--socket`` (or tests' tmp dirs).
DEFAULT_SOCKET = Path("results") / "repro-sim.sock"


def _error_response(exc: ServiceError) -> dict[str, Any]:
    extra = {}
    if exc.retry_after_s is not None:
        extra["retry_after_s"] = exc.retry_after_s
    return protocol.error(exc.code, str(exc), **extra)


class SimulationServer:
    """Socket front end over one :class:`SimulationService`."""

    def __init__(self, service: SimulationService, socket_path: str | Path) -> None:
        self.service = service
        self.socket_path = Path(socket_path)
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._busy = 0  # requests currently being answered

    async def start(self) -> None:
        await self.service.start()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        if self.socket_path.exists():
            self.socket_path.unlink()  # stale socket from a killed server
        self._server = await asyncio.start_unix_server(
            self._handle, path=str(self.socket_path)
        )

    async def drain_and_stop(self, settle_s: float = 5.0) -> None:
        """Graceful shutdown: drain the queue, flush waiters, close."""
        if self._server is not None:
            self._server.close()  # no new connections
        await self.service.drain()  # admitted work completes, waiters resolve
        # Give handler tasks a moment to write their final responses.
        deadline = asyncio.get_running_loop().time() + settle_s
        while self._busy and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.02)
        for writer in list(self._connections):
            with contextlib.suppress(Exception):
                writer.close()
        if self._server is not None:
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
            self._server = None
        await self.service.stop()
        with contextlib.suppress(OSError):
            self.socket_path.unlink()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                self._busy += 1
                try:
                    response = await self._respond(line)
                finally:
                    self._busy -= 1
                writer.write(protocol.encode(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()

    async def _respond(self, line: bytes) -> dict[str, Any]:
        try:
            request = protocol.validate_request(protocol.decode(line))
        except protocol.ProtocolError as exc:
            return protocol.error("bad_request", str(exc))
        try:
            return await self._dispatch(request)
        except ServiceError as exc:
            return _error_response(exc)
        except Exception as exc:  # a handler bug must not kill the connection
            return protocol.error("internal", f"{type(exc).__name__}: {exc}")

    async def _dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request["op"]
        if op == "ping":
            return protocol.ok(
                server="repro-sim", protocol=protocol.PROTOCOL_VERSION, pid=os.getpid()
            )
        if op == "metrics":
            return protocol.ok(metrics=self.service.metrics_snapshot())
        if op == "status":
            return protocol.ok(**self.service.status(request.get("job_id")))
        if op == "cancel":
            state = self.service.cancel(request["job_id"])
            return protocol.ok(job_id=request["job_id"], state=state)
        assert op == "submit", f"unhandled op {op!r}"
        try:
            ticket = self.service.submit_spec(request)
        except KeyError:
            return protocol.error(
                "unknown_workload",
                f"unknown workload {request['job']['workload']!r}",
            )
        if not request["wait"]:
            return protocol.ok(job_id=ticket.job_id, state=ticket.state, source=ticket.source)
        try:
            report = await asyncio.shield(ticket.future)
        except ServiceError as exc:
            response = _error_response(exc)
            response["job_id"] = ticket.job_id
            return response
        return protocol.ok(
            job_id=ticket.job_id,
            state="done",
            source=ticket.source,
            report=report_to_dict(report),
        )


async def _serve(socket_path: str | Path, service: SimulationService) -> int:
    server = SimulationServer(service, socket_path)
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    installed: list[signal.Signals] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):
            pass  # non-unix event loop; rely on KeyboardInterrupt
    print(f"repro-sim serve: listening on {server.socket_path} (pid {os.getpid()})", flush=True)
    try:
        await stop.wait()
        print("repro-sim serve: draining...", flush=True)
        await server.drain_and_stop()
        print("repro-sim serve: drained, bye", flush=True)
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
    return 0


def run_server(
    socket_path: str | Path | None = None,
    *,
    jobs: int | None = None,
    max_queue: int = 64,
    cache=None,
    mode: str = "auto",
) -> int:
    """Blocking entry point: serve until SIGTERM/SIGINT, drain, exit 0."""
    service = SimulationService(jobs=jobs, cache=cache, max_queue=max_queue, mode=mode)
    try:
        return asyncio.run(_serve(socket_path or DEFAULT_SOCKET, service))
    except KeyboardInterrupt:
        return 0


__all__ = ["DEFAULT_SOCKET", "SimulationServer", "run_server"]
