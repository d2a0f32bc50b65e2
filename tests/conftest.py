"""Shared test fixtures and fakes."""

from __future__ import annotations

import pytest

from repro.interconnect.packet import Packet
from repro.sim.engine import Simulator


class FakeTransport:
    """Fixed-delay transport for device-level unit tests.

    Delivers every packet ``delay`` cycles after it is sent and keeps a log
    so tests can assert on the message flow without a real fabric.
    """

    def __init__(self, sim: Simulator, delay: int = 10) -> None:
        self.sim = sim
        self.delay = delay
        self.handlers = {}
        self.sent: list[Packet] = []

    def register(self, node: int, handler) -> None:
        self.handlers[node] = handler

    def send(self, packet: Packet, now: int) -> None:
        self.sent.append(packet)
        handler = self.handlers.get(packet.dst)
        if handler is None:
            raise AssertionError(f"no handler registered for node {packet.dst}")
        self.sim.schedule(self.delay, lambda: handler(packet, self.sim.now))


@pytest.fixture(autouse=True)
def _isolated_trace_store(monkeypatch, tmp_path_factory):
    """Point the on-disk trace store at a session-scoped temp dir.

    Tests must not leave ``results/.tracestore`` artifacts in the working
    tree; sharing one directory per session keeps cross-process store-hit
    behavior testable.
    """
    root = tmp_path_factory.getbasetemp() / "tracestore"
    monkeypatch.setenv("REPRO_TRACE_DIR", str(root))


@pytest.fixture
def four_cpus(monkeypatch):
    """Let the sweep runner see four CPUs, so a ``jobs > 1`` sweep of enough
    cells takes the process pool even on a one-core host."""
    import repro.runner.sweep as sweep_mod

    monkeypatch.setattr(sweep_mod, "available_cpus", lambda: 4)


@pytest.fixture
def calls(monkeypatch):
    """``calls(cls, name)`` wraps the method ``cls.name`` for one test and
    returns the list it appends ``(instance, args, result)`` to per call.

    Device tallies live in no object: a test counts cache hits, HBM
    accesses or fabric sends at the entry point that makes them.
    """

    def wrap(cls, name):
        log = []
        original = getattr(cls, name)

        def wrapper(self, *args):
            result = original(self, *args)
            log.append((self, args, result))
            return result

        monkeypatch.setattr(cls, name, wrapper)
        return log

    return wrap


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def fake_transport(sim):
    return FakeTransport(sim)
