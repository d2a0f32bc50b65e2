"""Link-level fault verdicts and the link-failure diagnostic.

Random faults make the timing stack suffer a hostile channel so the
performance cost of recovery becomes measurable.  Per secured data-block
transmission, :class:`~repro.secure.adversary.LinkPerturbation` rolls one
seeded :class:`FaultVerdict`: deliver intact, drop, bit-corrupt,
duplicate, or delay-spike (see :class:`~repro.configs.FaultConfig`).

When a secure sender exhausts its retransmission budget the channel raises
:class:`LinkFailureError`: a structured diagnostic that terminates the
simulation cleanly instead of letting the workload deadlock on a message
that will never arrive.
"""

from __future__ import annotations

from enum import Enum


class FaultVerdict(Enum):
    """Fate of one wire transmission."""

    OK = "ok"
    DROP = "drop"
    CORRUPT = "corrupt"
    DUPLICATE = "duplicate"
    DELAY = "delay"

    # Identity hashing, as for PacketKind: members are singletons, and it
    # runs in C instead of Enum's Python-level ``hash(self._name_)``.
    # Nothing iterates a set of verdicts, so set order cannot leak into a
    # report.
    __hash__ = object.__hash__


class LinkFailureError(RuntimeError):
    """A message exhausted its retransmission budget.

    Raised by the secure channel when ``max_retries`` retransmissions of
    the same logical block all failed.  Carries the full diagnostic so the
    caller (sweep runner, experiment harness, operator) can report *which*
    link degraded and how hard recovery tried, instead of debugging a hung
    simulation.
    """

    def __init__(
        self,
        *,
        src: int,
        dst: int,
        pid: int,
        counter: int,
        attempts: int,
        first_sent: int,
        gave_up_at: int,
        fault_stats: dict | None = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.pid = pid
        self.counter = counter
        self.attempts = attempts
        self.first_sent = first_sent
        self.gave_up_at = gave_up_at
        self.fault_stats = dict(fault_stats or {})
        super().__init__(
            f"link {src}->{dst} failed: message pid={pid} undeliverable after "
            f"{attempts} transmissions (first sent cycle {first_sent}, gave up "
            f"cycle {gave_up_at})"
        )


__all__ = ["FaultVerdict", "LinkFailureError"]
