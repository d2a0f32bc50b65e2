"""Message-level trace capture and export.

Attaching a :class:`MessageTracer` to a system before ``run`` records every
interconnect message with its protocol-relevant fields (kind, endpoints,
sizes, send/delivery cycles).  Traces export to JSON-lines for external
analysis and re-import for post-processing with :func:`load_trace`.

This is observation-only: the tracer wraps the transport's instrumentation
hooks and never changes timing.  :meth:`MessageTracer.detach` restores the
original hooks, so a transport can be traced, released, and re-traced.

In-flight bookkeeping never leaks: protocol housekeeping (ACK/NACK/batch-
MAC packets, which have no arrival hook) is not tracked, a fault-injector
``drop`` evicts the doomed copy's entry (a later ``retransmit`` re-arms
it), a ``dup-content`` discard evicts the spurious retransmit of an
already-delivered block, and a recovery ``give-up`` evicts for good —
after any completed run, faulty or clean, the pending-send table is empty.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.interconnect.packet import Packet
from repro.system import MultiGpuSystem


@dataclass(frozen=True)
class FaultEvent:
    """One fault-injection or recovery event on the fabric.

    ``event`` is the transport's tag: injections (``drop``, ``corrupt``,
    ``duplicate``, ``delay``), detections (``mac-reject``, ``dup-discard``,
    ``dup-content``), and recovery actions (``timeout``, ``retransmit``,
    ``give-up``).
    """

    pid: int
    cycle: int
    event: str


@dataclass(frozen=True)
class MessageRecord:
    """One message's lifetime on the fabric."""

    pid: int
    kind: str
    src: int
    dst: int
    size_bytes: int
    meta_bytes: int
    sent_at: int
    delivered_at: int

    @property
    def latency(self) -> int:
        return self.delivered_at - self.sent_at


class MessageTracer:
    """Records every message a transport carries."""

    def __init__(self) -> None:
        self._sent: dict[int, tuple[Packet, int]] = {}
        self._delivered: set[int] = set()
        self.records: list[MessageRecord] = []
        self.fault_events: list[FaultEvent] = []
        # (transport, original hooks) while attached; None when detached
        self._attached: tuple | None = None

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, system: MultiGpuSystem) -> "MessageTracer":
        """Wrap ``system``'s transport instrumentation hooks."""
        transport = system.transport
        if getattr(transport, "_tracer", None) is not None:
            raise RuntimeError("transport already has a tracer attached")
        if self._attached is not None:
            raise RuntimeError("tracer is already attached; detach() it first")
        transport._tracer = self
        original_send = transport._note_send
        original_arrival = transport._note_arrival
        original_fault = transport._note_fault

        def note_send(packet, now):
            if not packet.kind.housekeeping:
                self._sent[packet.pid] = (packet, now)
            original_send(packet, now)

        def note_arrival(packet, now):
            sent = self._sent.pop(packet.pid, None)
            if sent is not None:
                self._record(packet, sent[1], now)
                self._delivered.add(packet.pid)
            original_arrival(packet, now)

        def note_fault(packet, event):
            self.fault_events.append(
                FaultEvent(pid=packet.pid, cycle=system.sim.now, event=event)
            )
            if event in ("drop", "give-up", "dup-content"):
                # None of these copies can ever reach note_arrival: a
                # dropped wire copy is gone (a later retransmit re-arms
                # it), a given-up block is abandoned, and a dup-content
                # copy was discarded because its pid already delivered —
                # which happens when a *delivered* block's ACK is lost, so
                # the retransmit below re-armed an entry that this evicts.
                self._sent.pop(packet.pid, None)
            elif event == "retransmit" and packet.pid not in self._delivered:
                # A fresh wire copy of a previously dropped block re-enters
                # flight now; corrupt-recovery retransmits keep their
                # original send time (the entry was never evicted), so
                # setdefault only re-arms drop-evicted blocks.  Already-
                # delivered pids are spurious retransmits (the ACK was
                # slow or lost): their copy can only end in a dup-content
                # discard or an ignored mac-reject, never an arrival, so
                # re-arming them would leak.
                self._sent.setdefault(packet.pid, (packet, system.sim.now))
            original_fault(packet, event)

        transport._note_send = note_send
        transport._note_arrival = note_arrival
        transport._note_fault = note_fault
        self._attached = (transport, original_send, original_arrival, original_fault)
        return self

    def detach(self) -> "MessageTracer":
        """Restore the transport's original hooks and release it.

        The captured records and fault events stay on the tracer; the
        transport can be re-attached (by this or another tracer).
        """
        if self._attached is None:
            raise RuntimeError("tracer is not attached to any transport")
        transport, original_send, original_arrival, original_fault = self._attached
        transport._note_send = original_send
        transport._note_arrival = original_arrival
        transport._note_fault = original_fault
        transport._tracer = None
        self._attached = None
        return self

    def _record(self, packet: Packet, sent_at: int, delivered_at: int) -> None:
        self.records.append(
            MessageRecord(
                pid=packet.pid,
                kind=packet.kind.value,
                src=packet.src,
                dst=packet.dst,
                size_bytes=packet.size_bytes,
                meta_bytes=packet.meta_bytes,
                sent_at=sent_at,
                delivered_at=delivered_at,
            )
        )

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def by_pair(self) -> dict[tuple[int, int], list[MessageRecord]]:
        pairs: dict[tuple[int, int], list[MessageRecord]] = {}
        for record in self.records:
            pairs.setdefault((record.src, record.dst), []).append(record)
        return pairs

    def mean_latency(self, kind: str | None = None) -> float:
        latencies = [
            r.latency for r in self.records if kind is None or r.kind == kind
        ]
        return sum(latencies) / len(latencies) if latencies else 0.0

    def total_bytes(self) -> int:
        return sum(r.size_bytes for r in self.records)

    def fault_counts(self) -> dict[str, int]:
        """Event-tag histogram of the recorded fault/recovery activity."""
        counts: dict[str, int] = {}
        for event in self.fault_events:
            counts[event.event] = counts.get(event.event, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Export / import
    # ------------------------------------------------------------------
    def dump_jsonl(self, path: str | Path) -> int:
        """Write one JSON object per message; returns the record count."""
        path = Path(path)
        with path.open("w") as fh:
            for record in self.records:
                fh.write(json.dumps(asdict(record)) + "\n")
        return len(self.records)


def load_trace(path: str | Path) -> list[MessageRecord]:
    """Re-import a JSONL message trace."""
    records = []
    with Path(path).open() as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(MessageRecord(**json.loads(line)))
            except (json.JSONDecodeError, TypeError) as exc:
                raise ValueError(f"{path}:{line_no}: malformed trace line") from exc
    return records


__all__ = ["FaultEvent", "MessageRecord", "MessageTracer", "load_trace"]
