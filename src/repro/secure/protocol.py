"""Functional secure-message protocol.

Where the timing simulator models *when* things happen, this module proves
*what* happens is implementable: real counter-mode pads, real GHASH MACs,
counter synchronization, replay rejection, and batched-MAC verification
with out-of-order tolerance — all running on the from-scratch crypto
substrate.  Integration tests pair two endpoints and push actual payload
bytes through the full paper protocol, including Formula 5's
``Batched_MsgMAC`` construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.counter_mode import BLOCK_BYTES, OneTimePad, PadGenerator
from repro.crypto.mac import MessageMAC, batched_mac


@dataclass(frozen=True)
class WireMessage:
    """What actually crosses the untrusted interconnect for one block."""

    sender_id: int
    receiver_id: int
    counter: int
    ciphertext: bytes
    mac: bytes | None  # None while the block's MAC rides in a batch


@dataclass(frozen=True)
class WireBatchMac:
    """The batched MsgMAC closing a group of blocks (Fig. 19b)."""

    sender_id: int
    receiver_id: int
    first_counter: int
    count: int
    mac: bytes


class ProtocolError(Exception):
    """Integrity, ordering, or replay violation."""


class SecureEndpoint:
    """One processor's send/receive protocol state under a session key."""

    def __init__(self, node_id: int, session_key: bytes, hash_key: bytes) -> None:
        self.node_id = node_id
        self._pads = PadGenerator(session_key)
        self._mac = MessageMAC(hash_key)
        self._hash_key = hash_key
        self._send_ctr: dict[int, int] = {}  # receiver -> next counter
        # Replay detection tolerant of out-of-order arrival within a window:
        # per sender, the set of counters seen above a low watermark.
        self._recv_seen: dict[int, set[int]] = {}
        self._recv_floor: dict[int, int] = {}
        # Sender side: per-receiver MACs of in-batch blocks awaiting close.
        # Receiver side: per-sender MsgMAC storage for lazy verification.
        # These MUST be separate: counters of the two directions overlap.
        self._send_batch_macs: dict[int, dict[int, bytes]] = {}
        self._recv_mac_storage: dict[int, dict[int, bytes]] = {}
        self.replay_window = 1024

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _next_send_counter(self, receiver: int) -> int:
        ctr = self._send_ctr.get(receiver, 0)
        self._send_ctr[receiver] = ctr + 1
        return ctr

    def _pad_for(self, counter: int, sender: int, receiver: int) -> OneTimePad:
        return self._pads.generate(counter, sender, receiver)

    def send_block(self, receiver: int, payload: bytes, in_batch: bool = False) -> WireMessage:
        """Encrypt + MAC one block for ``receiver``.

        ``in_batch=True`` keeps the per-block MAC local (it will be folded
        into a batched MsgMAC) — the wire message then carries no MAC.
        """
        if len(payload) > BLOCK_BYTES:
            raise ValueError(f"payload exceeds the {BLOCK_BYTES}-byte block")
        counter = self._next_send_counter(receiver)
        pad = self._pad_for(counter, self.node_id, receiver)
        ciphertext = pad.encrypt(payload)
        mac = self._mac.compute(ciphertext, pad)
        if in_batch:
            storage = self._send_batch_macs.setdefault(receiver, {})
            storage[counter] = mac
            return WireMessage(self.node_id, receiver, counter, ciphertext, mac=None)
        return WireMessage(self.node_id, receiver, counter, ciphertext, mac=mac)

    def close_batch(self, receiver: int) -> WireBatchMac:
        """Emit the batched MsgMAC over every pending in-batch block."""
        storage = self._send_batch_macs.get(receiver)
        if not storage:
            raise ProtocolError(f"no open batch toward node {receiver}")
        counters = sorted(storage)
        macs = [storage[c] for c in counters]
        self._send_batch_macs[receiver] = {}
        return WireBatchMac(
            sender_id=self.node_id,
            receiver_id=receiver,
            first_counter=counters[0],
            count=len(counters),
            mac=batched_mac(self._hash_key, macs),
        )

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def receive_block(self, message: WireMessage) -> bytes:
        """Decrypt (and, for un-batched messages, verify) one block.

        Batched blocks are decrypted immediately (lazy verification) and
        their recomputed MACs parked in MsgMAC storage until the batch MAC
        arrives — out-of-order arrival within a batch is tolerated.
        """
        if message.receiver_id != self.node_id:
            raise ProtocolError(
                f"node {self.node_id} received a message for {message.receiver_id}"
            )
        sender = message.sender_id
        self._check_replay(sender, message.counter)
        pad = self._pad_for(message.counter, sender, self.node_id)
        local_mac = self._mac.compute(message.ciphertext, pad)
        if message.mac is None:
            # Lazy path: hold the MAC for batch verification.
            self._recv_mac_storage.setdefault(sender, {})[message.counter] = local_mac
        elif message.mac != local_mac:
            raise ProtocolError(f"MAC mismatch on counter {message.counter} from {sender}")
        self._mark_seen(sender, message.counter)
        return pad.decrypt(message.ciphertext)

    def _check_replay(self, sender: int, counter: int) -> None:
        floor = self._recv_floor.get(sender, 0)
        if counter < floor:
            raise ProtocolError(
                f"replayed or ancient counter {counter} from node {sender} (floor {floor})"
            )
        if counter in self._recv_seen.get(sender, ()):
            raise ProtocolError(f"replayed counter {counter} from node {sender}")

    def _mark_seen(self, sender: int, counter: int) -> None:
        seen = self._recv_seen.setdefault(sender, set())
        seen.add(counter)
        high = max(seen)
        floor = max(self._recv_floor.get(sender, 0), high - self.replay_window + 1)
        if floor > self._recv_floor.get(sender, 0):
            self._recv_floor[sender] = floor
            stale = [c for c in seen if c < floor]
            for c in stale:
                seen.discard(c)

    def verify_batch(self, batch: WireBatchMac) -> bool:
        """Check a batched MsgMAC against the stored per-block MACs."""
        storage = self._recv_mac_storage.get(batch.sender_id, {})
        counters = range(batch.first_counter, batch.first_counter + batch.count)
        try:
            macs = [storage[c] for c in counters]
        except KeyError as missing:
            raise ProtocolError(
                f"batch from {batch.sender_id} verified before block {missing} arrived"
            ) from None
        ok = batched_mac(self._hash_key, macs) == batch.mac
        if ok:
            for c in counters:
                del storage[c]
        return ok

    def stored_macs(self, sender: int) -> int:
        """Receiver-side MsgMAC-storage occupancy for ``sender``."""
        return len(self._recv_mac_storage.get(sender, {}))


__all__ = ["SecureEndpoint", "WireMessage", "WireBatchMac", "ProtocolError"]
