"""Replay-attack protection bookkeeping (§II-C).

The sender keeps each outgoing message's counter (or MAC) until the
receiver's ACK echoes it back; a mismatch or an unexpected ACK indicates a
replayed or dropped message.  Links deliver in FIFO order in this model, so
ACKs retire entries oldest-first per directed pair.

The guard is pure bookkeeping — it adds no cycles.  Its ledger (entries
ACKed, violations, entries dropped as lost, and the entries still
outstanding at the end of a run) feeds the ``ack.guard_*`` metrics, and the
batched protocol's single-ACK-per-batch behaviour shows up directly as a
lower entry turnover.

Two ACK channels coexist under metadata batching (§IV-C): conventional
messages (e.g. remote writes) are ACKed individually and carry their
counter, while batched data blocks are ACKed *once per batch*, identified
by batch id.  The two channels complete at different latencies by design —
a batch ACK waits for the batch to close — so their retirements must not
share one blind FIFO.  Entries are therefore *tagged* with their batch id
at :meth:`ReplayGuard.on_send` time, a batch ACK retires exactly its
batch's tagged entries (:meth:`on_ack` with ``batch_id``), and the FIFO
freshness check for a conventional ACK measures queue depth over the
*untagged* entries only: batch-pending entries ahead of a conventional
counter are not "overtaken", they are simply on the slower channel.

A nonzero ``window`` relaxes strict FIFO: a conventional ACK whose counter
sits at untagged depth ``d`` (0 = head of the untagged subsequence) is
accepted without penalty when ``d < window`` — delivery reordering within
the window is legitimate, e.g. under an active adversary holding blocks
back (`AdversaryConfig.reorder_rate`).  The boundary is exact: depth
``window - 1`` is the last accepted position, depth ``window`` already
counts as a violation and triggers the lost-entry resynchronization.
``window=0`` (the default) is strict FIFO — any out-of-head ACK is a
violation — which keeps adversary-free runs bit-identical to the
historical behaviour.
"""

from __future__ import annotations

from collections import deque
from itertools import islice


class ReplayGuard:
    """Sender-side outstanding-message table for one processor."""

    def __init__(self, node: int, window: int = 0) -> None:
        if window < 0:
            raise ValueError("window must be non-negative")
        self.node = node
        self.window = window  # out-of-order ACK tolerance (queue depth)
        self._outstanding: dict[int, deque[int]] = {}  # peer -> counters awaiting ACK
        #: (peer, batch_id) -> counters retained for that batch's single ACK
        self._batch_members: dict[tuple[int, int], list[int]] = {}
        #: peer -> counters currently tagged as batch-pending
        self._tagged: dict[int, set[int]] = {}
        #: entries handed to :meth:`on_send`; each leaves the queue once,
        #: ACKed or dropped, so ``sent == acked + dropped + outstanding()``
        self.sent = 0
        self.acked = 0
        self.violations = 0
        self.dropped = 0  # entries retired as lost-in-flight, never ACKed
        self.reorder_accepts = 0  # out-of-order ACKs accepted in-window
        self.max_reorder_depth = 0  # deepest accepted out-of-order position

    def _pair(self, peer: int) -> deque:
        queue = self._outstanding.get(peer)
        if queue is None:
            queue = self._outstanding[peer] = deque()
        return queue

    def on_send(self, peer: int, counter: int, batch_id: int | None = None) -> None:
        """Retain ``counter`` until the matching ACK returns.

        ``batch_id`` tags the entry as awaiting its *batch's* single ACK
        rather than an individual one; the tag routes the entry to the
        batch-ACK retirement channel.
        """
        self._pair(peer).append(counter)
        self.sent += 1
        if batch_id is not None:
            self._batch_members.setdefault((peer, batch_id), []).append(counter)
            self._tagged.setdefault(peer, set()).add(counter)

    def on_ack(self, peer: int, counter: int | None = None, batch_id: int | None = None) -> bool:
        """Retire entries for ``peer`` on ACK receipt.

        Two retirement channels:

        * ``batch_id`` given — a batched ACK: retire exactly the entries
          tagged with that batch id (see :meth:`on_send`), wherever they
          sit in the queue.  An unknown or already-settled batch id is a
          forged/replayed ACK and leaves the queue untouched.
        * otherwise a conventional ACK for ``counter``: the FIFO freshness
          check, measured over *untagged* entries only.  Batch-pending
          entries ahead of the counter are on the slower ACK channel and
          do not count as reordering.  A counter at untagged depth
          ``0 < d < window`` is an in-window reordering, retired cleanly.
          A counter at untagged depth ``>= window`` means the untagged
          entries ahead of it were lost in flight: the guard
          resynchronizes by dropping those entries (batch-tagged ones
          stay queued for their own ACKs).  A counter that was never
          sent (forged or replayed) leaves the queue untouched.
        """
        queue = self._pair(peer)
        if batch_id is not None:
            return self._ack_batch(peer, queue, batch_id)
        if queue and queue[0] == counter:
            queue.popleft()
            self.acked += 1
            return True
        return self._ack_positional(peer, queue, counter)

    def _ack_batch(self, peer: int, queue: deque, batch_id: int) -> bool:
        """Retire exactly the entries retained for one batch."""
        members = self._batch_members.pop((peer, batch_id), None)
        if not members:
            self.violations += 1  # unknown or double-ACKed batch
            return False
        member_set = set(members)
        retained = [c for c in queue if c not in member_set]
        removed = len(queue) - len(retained)
        tagged = self._tagged.get(peer)
        if tagged is not None:
            tagged.difference_update(member_set)
        if removed == 0:
            # Every member already retired (e.g. voided pre-retransmit):
            # the ACK answers wire copies that no longer exist.
            self.violations += 1
            return False
        queue.clear()
        queue.extend(retained)
        self.acked += removed
        return True

    def _ack_positional(self, peer: int, queue: deque, counter: int | None) -> bool:
        """Conventional-ACK freshness check over the untagged subsequence."""
        try:
            pos = queue.index(counter)
        except ValueError:
            self.violations += 1  # never sent: forged or replayed ACK
            return False
        tagged = self._tagged.get(peer) or frozenset()
        depth = sum(1 for c in islice(queue, pos) if c not in tagged)
        if depth < max(self.window, 1):
            # depth 0: only batch-pending entries ahead — the conventional
            # channel's own FIFO order is intact.  depth < window: a
            # legitimate in-window reordering (window-1 is the last
            # accepted position, depth window already resyncs).
            del queue[pos]
            self.acked += 1
            if depth > 0:
                self.reorder_accepts += 1
                if depth > self.max_reorder_depth:
                    self.max_reorder_depth = depth
            return True
        # Out-of-window: the untagged entries ahead were lost in flight
        # (their ACKs will never come).  Resynchronize by dropping them;
        # batch-tagged entries stay queued for their batch ACKs.
        self.violations += 1
        retained_front: list[int] = []
        while queue:
            head = queue.popleft()
            if head == counter:
                self.acked += 1
                break
            if head in tagged:
                retained_front.append(head)
            else:
                self.dropped += 1
        for c in reversed(retained_front):
            queue.appendleft(c)
        return False

    def retire_lost(self, peer: int, counter: int) -> bool:
        """Void a specific entry known lost on the wire (pre-retransmit).

        The secure channel calls this when it retransmits a block under a
        fresh counter: the old copy's ACK can never arrive, so leaving its
        entry queued would desynchronize the FIFO freshness check.
        """
        queue = self._pair(peer)
        try:
            queue.remove(counter)
        except ValueError:
            return False
        tagged = self._tagged.get(peer)
        if tagged is not None:
            tagged.discard(counter)
        self.dropped += 1
        return True

    def outstanding(self, peer: int | None = None) -> int:
        if peer is None:
            return sum(len(q) for q in self._outstanding.values())
        return len(self._outstanding.get(peer, ()))


__all__ = ["ReplayGuard"]
