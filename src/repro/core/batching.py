"""Security-metadata batching (§IV-C, Figs 19/20).

Conventionally every 64 B data transfer carries MsgCTR + MsgMAC + sender ID
and triggers its own ACK.  The batching controller instead groups up to
``batch_size`` data blocks per directed pair:

* every block still carries MsgCTR + sender ID (decryption must not wait —
  lazy integrity verification keeps data usable immediately);
* the first block of a batch carries a 1 B length field;
* one batched MsgMAC authenticates the whole group.  It rides on the block
  that closes the batch, or in a small standalone packet when a timeout
  closes a partial batch;
* the receiver returns a single ACK per batch for replay protection.

The receiver holds a batch's per-block MsgMACs until the batched MsgMAC
verifies (tolerating out-of-order arrival).  The secure channel keeps that
record per in-flight batch (``SecureTransport._batch_arrivals``); §IV-D
sizes the hardware storage at ``max(16, 64) × peers × 8 B`` per processor,
which :mod:`repro.experiments.hw_overhead` computes analytically.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BlockGrant:
    """Batch boundaries for one data block entering a batch."""

    opens_batch: bool
    closes_batch: bool
    batch_id: int
    batch_size: int  # blocks in the batch so far (valid when closing)


class _PairBatch:
    __slots__ = ("batch_id", "count")

    def __init__(self, batch_id: int) -> None:
        self.batch_id = batch_id
        self.count = 0


class BatchingController:
    """Sender-side batch former for one processor.

    The owner (the secure channel layer) calls :meth:`add_block` for every
    outgoing data block and :meth:`timeout_close` when a batch's timer
    fires; the controller only decides batch boundaries.  The owner arms
    that timer (``SecurityConfig.batch_timeout``); the controller never
    touches the clock itself.
    """

    def __init__(self, batch_size: int = 16) -> None:
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        self.batch_size = batch_size
        self._open: dict[int, _PairBatch] = {}  # peer -> open batch
        self._next_batch_id = 0
        self.batches_opened = 0
        self.batches_closed_full = 0
        self.batches_closed_timeout = 0
        #: timers that fired for an already-closed batch and were ignored —
        #: the size-close vs. timeout-close race resolves as a counted no-op
        self.stale_timeouts = 0

    def add_block(self, peer: int) -> BlockGrant:
        """Account one outgoing data block to ``peer``."""
        batch = self._open.get(peer)
        opens = batch is None
        if opens:
            batch = _PairBatch(self._next_batch_id)
            self._next_batch_id += 1
            self._open[peer] = batch
            self.batches_opened += 1
        batch.count += 1
        closes = batch.count >= self.batch_size
        if closes:
            del self._open[peer]
            self.batches_closed_full += 1
        return BlockGrant(
            opens_batch=opens,
            closes_batch=closes,
            batch_id=batch.batch_id,
            batch_size=batch.count,
        )

    def timeout_close(self, peer: int, batch_id: int) -> int | None:
        """Close a batch whose timer fired.

        Returns the size in blocks of the closed batch, or None when the
        timer is stale (the batch already closed by filling up).  Batch ids
        are never reused within a controller, so a stale timer can only
        ever observe ``batch_id != batch.batch_id`` (or no open batch) and
        must change nothing: no MAC packet, no close counter, no bytes.
        The caller relies on the None return to skip the standalone-MAC
        send entirely; :attr:`stale_timeouts` counts the no-ops so the
        race stays observable.
        """
        batch = self._open.get(peer)
        if batch is None or batch.batch_id != batch_id:
            self.stale_timeouts += 1
            return None
        del self._open[peer]
        self.batches_closed_timeout += 1
        return batch.count


__all__ = ["BatchingController", "BlockGrant"]
