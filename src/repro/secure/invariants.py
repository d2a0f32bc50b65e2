"""Runtime security-invariant monitor for the secure transport.

Assertions about the protocol ("counters are monotonic", "no pad is used
twice", "nothing tampered is ever accepted") normally live in tests, where
they check one curated scenario.  :class:`InvariantMonitor` turns them into
a *continuously evaluated contract*: a sanitizer attached to a
:class:`~repro.secure.hostile.HostileSecureTransport` that observes every counter
issue, pad consumption, MAC verdict, and delivery during a run, and raises
:class:`InvariantViolationError` at report time if any invariant broke —
the same shape as a thread/address sanitizer, but for the security
protocol.

Monitored invariants:

1. **Counter monotonicity** — per directed pair, issued MsgCTRs strictly
   increase (a stalled or reused counter would re-key a pad).
2. **Pad single-use** — no (pair, counter) consumes a send pad or a
   receive pad more than once; OTP security collapses on reuse.  Pads a
   MAC-rejected alien copy (splice/forge) wasted at the counter it merely
   *claimed* are excluded: the transport bills their cost, but they never
   decrypt an accepted block.  A negative counter at a pad hook is a
   violation too: no sender issues one.
3. **Tamper rejection** — a wire copy the adversary mutated (flip,
   truncate, splice, forge) is never handed to a device; each must end in
   a MAC rejection.
4. **Replay-window semantics** — every out-of-order ACK a
   :class:`~repro.secure.replay.ReplayGuard` accepted sat strictly inside
   the configured window (depth < window), and each guard's ledger
   reconciles: every entry it was handed is ACKed, dropped as lost, or
   still outstanding.
5. **Attack resolution** — at end of run every injected attack is
   settled: detected, harmless, or (contract-breaking, but *recorded*)
   accepted; none simply vanish.

The monitor is pure bookkeeping — it never touches simulated time — and
it is attached automatically only when an adversary is configured, so
clean and fault-only runs keep their hot paths (and their bytes) intact.
Its pad ledgers keep one :class:`CounterLedger` per directed pair, at
about one byte per counter, so a whole run's transcript stays cheap to keep.
"""

from __future__ import annotations

from repro.secure.adversary import AttackReport
from repro.secure.replay import ReplayGuard


class InvariantViolationError(AssertionError):
    """One or more security invariants broke during a run."""

    def __init__(self, violations: list[str]) -> None:
        self.violations = list(violations)
        lines = "\n  - ".join(self.violations)
        super().__init__(f"{len(self.violations)} security invariant violation(s):\n  - {lines}")


class CounterLedger:
    """The counters of one directed pair that have been used, one byte each.

    A pair's counters are issued from 0 up, so a ``bytearray`` indexed by
    counter holds the pair's whole history in about one byte per counter.
    It grows by doubling, so a mark costs amortized O(1).  Counters are
    never negative here: callers screen out the fabricated counters of
    forged copies before :meth:`mark`.
    """

    __slots__ = ("_marks",)

    def __init__(self) -> None:
        self._marks = bytearray(64)

    def mark(self, counter: int) -> bool:
        """Mark ``counter`` (>= 0) used; return whether it already was."""
        marks = self._marks
        try:
            used = marks[counter]
        except IndexError:
            size = len(marks)
            while size <= counter:
                size *= 2
            marks.extend(bytes(size - len(marks)))
            used = 0
        marks[counter] = 1
        return used != 0

    def __contains__(self, counter: int) -> bool:
        """Whether ``counter`` was marked; never true for a negative one."""
        return 0 <= counter < len(self._marks) and self._marks[counter] != 0


class InvariantMonitor:
    """Transcript-level sanitizer for one transport's security protocol."""

    def __init__(self) -> None:
        self.violations: list[str] = []
        self._last_counter: dict[tuple[int, int], int] = {}
        self._send_pads: dict[tuple[int, int], CounterLedger] = {}
        self._recv_pads: dict[tuple[int, int], CounterLedger] = {}
        self._tampered: set[tuple[int, int, int]] = set()
        self._rejected: set[tuple[int, int, int]] = set()

    def _flag(self, message: str) -> None:
        self.violations.append(message)

    # ------------------------------------------------------------------
    # Hooks called by the transport
    # ------------------------------------------------------------------
    def on_counter(self, src: int, dst: int, counter: int) -> None:
        """A sender issued ``counter`` on the (src -> dst) pair."""
        last = self._last_counter.get((src, dst))
        if last is not None and counter <= last:
            self._flag(
                f"counter not strictly monotonic on {src}->{dst}: "
                f"issued {counter} after {last}"
            )
        self._last_counter[(src, dst)] = counter

    def on_send_pad(self, src: int, dst: int, counter: int) -> None:
        """A send pad encrypted the wire copy keyed by ``counter``."""
        self._use_pad("send", self._send_pads, src, dst, counter)

    def on_recv_pad(self, src: int, dst: int, counter: int) -> None:
        """A receive pad decrypted the wire copy keyed by ``counter``."""
        self._use_pad("receive", self._recv_pads, src, dst, counter)

    def _use_pad(self, side: str, ledgers: dict, src: int, dst: int, counter: int) -> None:
        """Mark one pad of the (src -> dst) ledgers used; flag a reuse."""
        if counter < 0:
            # No sender issues one; only forged copies carry them, and
            # those are tampered copies, which never reach a pad hook.
            self._flag(f"{side} pad keyed by negative counter on {src}->{dst} ctr={counter}")
            return
        ledger = ledgers.get((src, dst))
        if ledger is None:
            ledger = ledgers[src, dst] = CounterLedger()
        if ledger.mark(counter):
            self._flag(f"{side} pad consumed twice for {src}->{dst} ctr={counter}")

    def on_tampered_copy(self, src: int, dst: int, counter: int, pid: int) -> None:
        """The adversary mutated/fabricated one wire copy.

        Copies are identified by ``(pid, counter)``: the counter alone is
        only unique within one directed pair's sequence, and a spliced
        copy carries its *origin* pair's counter onto another pair —
        where the same value names an unrelated legitimate block.
        """
        self._tampered.add((pid, counter))

    def on_mac_reject(self, src: int, dst: int, counter: int, pid: int) -> None:
        """MsgMAC verification rejected one wire copy."""
        self._rejected.add((pid, counter))

    def on_delivered(self, src: int, dst: int, counter: int, pid: int) -> None:
        """A device consumed the block carried by one wire copy."""
        key = (pid, counter)
        if key in self._tampered:
            self._flag(
                f"tampered block accepted post-MAC on {src}->{dst} ctr={counter}"
            )
        if key in self._rejected:
            self._flag(
                f"block delivered after MAC rejection on {src}->{dst} ctr={counter}"
            )

    # ------------------------------------------------------------------
    # End-of-run checks
    # ------------------------------------------------------------------
    def check_guard(self, guard: ReplayGuard, window: int) -> None:
        """Audit one sender's replay guard against its configured window."""
        if guard.max_reorder_depth > max(0, window - 1):
            self._flag(
                f"replay guard node {guard.node} accepted an ACK at reorder "
                f"depth {guard.max_reorder_depth} outside window {window}"
            )
        settled = guard.acked + guard.dropped + guard.outstanding()
        if guard.sent != settled:
            self._flag(
                f"replay guard node {guard.node} ledger inconsistent: {guard.sent} "
                f"entries handed, {settled} ACKed, dropped or outstanding"
            )

    def check_attack_report(self, report: AttackReport) -> None:
        """Every injected attack must have resolved into an outcome."""
        if report.unresolved != 0:
            self._flag(
                f"{report.unresolved} injected attack(s) never resolved into "
                "detected/harmless/accepted"
            )

    def check(self) -> None:
        """Raise if any invariant broke; no-op on a clean transcript."""
        if self.violations:
            raise InvariantViolationError(self.violations)


__all__ = ["CounterLedger", "InvariantMonitor", "InvariantViolationError"]
