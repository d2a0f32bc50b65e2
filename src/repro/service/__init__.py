"""Simulation-as-a-service: a long-lived queued front door for sweeps.

Everything built for one-shot sweeps — the result cache, the trace
store, process-pool fan-out, telemetry — behind a socket server so many
clients can share one warm scheduler::

    repro-sim serve --socket /tmp/repro.sock          # the server
    repro-sim submit fir --scheme batching \\
        --socket /tmp/repro.sock                      # a client

Modules: :mod:`~repro.service.protocol` (NDJSON wire schema),
:mod:`~repro.service.scheduler` (admission queue, single-flight dedup,
trace-key batching, fairness, deadlines, drain),
:mod:`~repro.service.server` (asyncio socket front end),
:mod:`~repro.service.client` (blocking client).  The full contract —
scheduling policy, backpressure, determinism — is documented in
``docs/SERVICE.md``.
"""

from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.protocol import (
    ERROR_CODES,
    PROTOCOL_VERSION,
    ProtocolError,
    canonical_report_json,
)
from repro.service.scheduler import ServiceError, SimulationService, Ticket, job_from_spec
from repro.service.server import DEFAULT_SOCKET, SimulationServer, run_server

__all__ = [
    "DEFAULT_SOCKET",
    "ERROR_CODES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "SimulationServer",
    "SimulationService",
    "Ticket",
    "canonical_report_json",
    "job_from_spec",
    "run_server",
]
