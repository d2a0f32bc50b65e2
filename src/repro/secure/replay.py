"""Replay-attack protection bookkeeping (§II-C).

The sender keeps each outgoing message's counter (or MAC) until the
receiver's ACK echoes it back; a mismatch or an unexpected ACK indicates a
replayed or dropped message.

The guard is pure bookkeeping — it adds no cycles.  Its ledger (entries
ACKed, violations, entries dropped as lost, and the entries still
outstanding at the end of a run) feeds the ``ack.guard_*`` metrics, and the
batched protocol's single-ACK-per-batch behaviour shows up directly as a
lower entry turnover.

Two ACK channels coexist under metadata batching (§IV-C), and the guard
keeps one record for each, per peer:

* conventional messages (e.g. remote writes) are ACKed individually and
  carry their counter.  Links deliver in FIFO order in this model, so
  their counters wait in a FIFO, oldest first, and an ACK's freshness
  depth is its counter's index there;
* batched data blocks are ACKed *once per batch*, identified by batch id.
  Each ``(peer, batch_id)`` keeps a list of its counters, and the batch's
  ACK retires exactly that list.

The two channels complete at different latencies by design — a batch ACK
waits for the batch to close — so batch-pending entries never count toward
a conventional ACK's depth: they are not "overtaken", they are simply on
the slower channel.  A conventional ACK never names a batched counter,
because sender and receiver make the same batched-or-not decision for
every message.

A nonzero ``window`` relaxes strict FIFO: a conventional ACK whose counter
sits at FIFO depth ``d`` (0 = head) is accepted without penalty when
``d < window`` — delivery reordering within the window is legitimate, e.g.
under an active adversary holding blocks back
(`AdversaryConfig.reorder_rate`).  The boundary is exact: depth
``window - 1`` is the last accepted position, depth ``window`` already
counts as a violation and triggers the lost-entry resynchronization.
``window=0`` (the default) is strict FIFO — any out-of-head ACK is a
violation — which keeps adversary-free runs bit-identical to the
historical behaviour.
"""

from __future__ import annotations

from collections import deque


class ReplayGuard:
    """Sender-side outstanding-message table for one processor."""

    def __init__(self, node: int, window: int = 0) -> None:
        if window < 0:
            raise ValueError("window must be non-negative")
        self.node = node
        self.window = window  # out-of-order ACK tolerance (FIFO depth)
        #: peer -> conventional counters awaiting their ACKs, oldest first
        self._fifo: dict[int, deque[int]] = {}
        #: (peer, batch_id) -> counters awaiting that batch's single ACK
        self._batches: dict[tuple[int, int], list[int]] = {}
        #: entries handed to :meth:`on_send`; each leaves its record once,
        #: ACKed or dropped, so ``sent == acked + dropped + outstanding()``
        self.sent = 0
        self.acked = 0
        self.violations = 0
        self.dropped = 0  # entries retired as lost-in-flight, never ACKed
        self.max_reorder_depth = 0  # deepest accepted out-of-order position

    def on_send(self, peer: int, counter: int, batch_id: int | None = None) -> None:
        """Retain ``counter`` until the matching ACK returns.

        ``batch_id`` files the entry under its *batch's* single ACK rather
        than an individual one.
        """
        self.sent += 1
        if batch_id is None:
            fifo = self._fifo.get(peer)
            if fifo is None:
                fifo = self._fifo[peer] = deque()
            fifo.append(counter)
            return
        key = (peer, batch_id)
        members = self._batches.get(key)
        if members is None:
            members = self._batches[key] = []
        members.append(counter)

    def on_ack(
        self, peer: int, counter: int | None = None, batch_id: int | None = None
    ) -> bool | list[int]:
        """Retire entries for ``peer`` on ACK receipt.

        Two retirement channels:

        * ``batch_id`` given — a batched ACK: retire exactly the entries
          filed under that batch id and return their counters.  An unknown
          or already-settled batch id, or one whose every entry was voided
          by :meth:`retire_lost`, answers no wire copy that still exists:
          it is a violation, and the ACK returns an empty list.
        * otherwise a conventional ACK for ``counter``: the FIFO freshness
          check.  A counter at depth ``0 < d < window`` is an in-window
          reordering, retired cleanly.  A counter at depth ``>= window``
          means the entries ahead of it were lost in flight: the guard
          resynchronizes by dropping them.  A counter that was never sent
          (forged or replayed) leaves the FIFO untouched.  Returns whether
          the ACK was clean.
        """
        if batch_id is not None:
            members = self._batches.pop((peer, batch_id), None)
            if not members:
                self.violations += 1
                return []
            self.acked += len(members)
            return members
        fifo = self._fifo.get(peer, ())
        if fifo and fifo[0] == counter:
            fifo.popleft()
            self.acked += 1
            return True
        try:
            depth = fifo.index(counter)
        except ValueError:
            self.violations += 1  # never sent: forged or replayed ACK
            return False
        if depth < self.window:
            # a legitimate in-window reordering: window-1 is the last
            # accepted position, depth window already resyncs
            del fifo[depth]
            self.acked += 1
            if depth > self.max_reorder_depth:
                self.max_reorder_depth = depth
            return True
        # Out of window: the entries ahead were lost in flight (their ACKs
        # will never come).  Resynchronize by dropping them, then retire
        # the ACKed counter itself.
        self.violations += 1
        self.dropped += depth
        self.acked += 1
        for _ in range(depth + 1):
            fifo.popleft()
        return False

    def retire_lost(self, peer: int, counter: int, batch_id: int | None = None) -> bool:
        """Void a specific entry known lost on the wire (pre-retransmit).

        The secure channel calls this when it retransmits a block under a
        fresh counter, passing the block's batch id if it has one: the old
        copy's ACK is not expected, so its entry left in the FIFO would
        desynchronize the freshness check, and left in its batch's list it
        would count as ACKed with the batch.
        """
        if batch_id is None:
            record = self._fifo.get(peer)
        else:
            record = self._batches.get((peer, batch_id))
        if record is None:
            return False
        try:
            record.remove(counter)
        except ValueError:
            return False
        self.dropped += 1
        return True

    def outstanding(self, peer: int | None = None) -> int:
        if peer is None:
            fifos = self._fifo.values()
            batches = self._batches.values()
        else:
            fifos = (self._fifo.get(peer, ()),)
            batches = [m for (p, _), m in self._batches.items() if p == peer]
        return sum(map(len, fifos)) + sum(map(len, batches))


__all__ = ["ReplayGuard"]
