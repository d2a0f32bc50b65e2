"""Security-metadata wire accounting.

Single place that decides how many metadata bytes ride on each message and
which messages trigger replay-protection ACKs (``PacketKind.acked``) or
may be batched (``PacketKind.batchable``), for both the conventional
per-message protocol (§II-C) and the batched protocol (§IV-C).  The
``count_metadata`` switch supports Fig. 11's "+SecureCommu" configuration:
security latencies apply but metadata occupies no link bandwidth.
"""

from __future__ import annotations

from repro.configs import MetadataConfig
from repro.interconnect.packet import PacketKind

#: Message kinds that carry a data payload and therefore get ACKed for
#: replay protection (read requests are implicitly covered by their
#: responses; ACK kinds are never themselves ACKed).
ACKED_KINDS = frozenset(
    {PacketKind.DATA_RESP, PacketKind.WRITE_REQ, PacketKind.MIGRATION_DATA}
)

#: Data kinds eligible for metadata batching (the paper batches data
#: responses and page-migration streams; writes stay conventional).
BATCHABLE_KINDS = frozenset({PacketKind.DATA_RESP, PacketKind.MIGRATION_DATA})

# The secure channel reads both per secured message, as plain member
# flags; the two sets above stay their one definition.
for _kind in PacketKind:
    _kind.acked = _kind in ACKED_KINDS
    _kind.batchable = _kind in BATCHABLE_KINDS
del _kind


class MetadataAccountant:
    """Computes metadata sizes under the active configuration."""

    def __init__(self, metadata: MetadataConfig, count_metadata: bool = True) -> None:
        self.metadata = metadata
        self.count_metadata = count_metadata
        #: Lazy batched verification trades detection latency for
        #: bandwidth — acceptable on a clean channel, but a hostile link
        #: needs corruption caught *before* the block leaves the verified
        #: window.  Its transport sets this flag, and every batched block
        #: then keeps its own MsgMAC on the wire (batch ACKs and counter
        #: compression still apply).
        self.eager_block_mac = False

    def _sized(self, nbytes: int) -> int:
        return nbytes if self.count_metadata else 0

    def conventional_meta(self) -> int:
        """MsgCTR + MsgMAC + senderID on every secured message, whatever
        its kind."""
        return self._sized(self.metadata.per_message_meta_bytes)

    def batched_block_meta(self, opens_batch: bool, closes_batch: bool) -> int:
        """Per-block metadata when batching: CTR + ID (+len, +batch MAC,
        +the block's own MsgMAC when verified eagerly)."""
        meta = self.metadata.batched_block_meta_bytes
        if opens_batch:
            meta += self.metadata.batch_len_bytes
        if closes_batch:
            meta += self.metadata.msg_mac_bytes
        if self.eager_block_mac:
            meta += self.metadata.msg_mac_bytes
        return self._sized(meta)

    def ack_packet_size(self) -> int:
        """Wire size of a replay-protection ACK (always >= 1 so the link
        model can serialize it even when metadata is not counted)."""
        return max(1, self._sized(self.metadata.ack_bytes))

    def standalone_batch_mac_size(self) -> int:
        """Timeout-closed batches ship their MAC in a tiny packet."""
        return max(
            1,
            self._sized(
                self.metadata.msg_mac_bytes + self.metadata.sender_id_bytes + 1
            ),
        )


__all__ = ["MetadataAccountant", "ACKED_KINDS", "BATCHABLE_KINDS"]
