"""Packet definitions for inter-processor messages.

A packet's ``size_bytes`` is everything that occupies link bandwidth:
header + payload + any security metadata the active scheme attaches.
Security metadata is accounted separately in ``meta_bytes`` so the traffic
breakdown figures (Figs 12/23) can split base traffic from metadata traffic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

#: Header bytes of every request and reply; the secure transport adds its
#: metadata on top.
HEADER_BYTES = 16


class PacketKind(Enum):
    """Message classes crossing the interconnect."""

    READ_REQ = "read_req"  # block read request
    WRITE_REQ = "write_req"  # block write (carries data)
    DATA_RESP = "data_resp"  # block data response
    WRITE_ACK = "write_ack"  # completion of a remote write
    SEC_ACK = "sec_ack"  # replay-protection acknowledgement
    SEC_NACK = "sec_nack"  # MAC-failure report requesting retransmission
    BATCH_MAC = "batch_mac"  # standalone batched MsgMAC (timeout close)
    MIGRATION_REQ = "migration_req"  # ask a page's owner to migrate it
    MIGRATION_DATA = "migration_data"  # one block of a 4 KB page migration

    # Members are singletons, so identity hashing is exact, and it runs in
    # C instead of Enum's Python-level ``hash(self._name_)``.  Nothing
    # iterates a set of kinds, so set order cannot leak into a report.
    __hash__ = object.__hash__

    #: the message moves a data block (set per member below)
    carries_data: bool
    #: protocol housekeeping the transport generates itself: replay ACKs,
    #: NACKs and standalone batch MACs (set per member below)
    housekeeping: bool
    #: replay-protection ACKed / eligible for metadata batching: set per
    #: member by :mod:`repro.secure.metadata` from its ``ACKED_KINDS`` and
    #: ``BATCHABLE_KINDS``
    acked: bool
    batchable: bool


# Plain per-member flags, read on every message; set once at import.
for _kind in PacketKind:
    _kind.carries_data = _kind in (
        PacketKind.WRITE_REQ,
        PacketKind.DATA_RESP,
        PacketKind.MIGRATION_DATA,
    )
    _kind.housekeeping = _kind in (
        PacketKind.SEC_ACK,
        PacketKind.SEC_NACK,
        PacketKind.BATCH_MAC,
    )
del _kind


_packet_ids = itertools.count()


@dataclass(slots=True)
class Packet:
    """One message on a link.

    ``slots=True``: packets are the most-allocated object in a simulation
    (one per message per hop), and slotted instances are both smaller and
    faster to field-access in the transport hot path.
    """

    kind: PacketKind
    src: int
    dst: int
    size_bytes: int
    meta_bytes: int = 0
    txn_id: int = -1
    address: int = -1
    pid: int = field(default_factory=_packet_ids.__next__)

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {self.size_bytes}")
        if self.meta_bytes < 0 or self.meta_bytes > self.size_bytes:
            raise ValueError(
                f"meta_bytes {self.meta_bytes} must lie within size_bytes {self.size_bytes}"
            )
        if self.src == self.dst:
            raise ValueError("packet source and destination must differ")

    @property
    def base_bytes(self) -> int:
        """Bytes the unsecure system would also have sent."""
        return self.size_bytes - self.meta_bytes


__all__ = ["HEADER_BYTES", "Packet", "PacketKind"]
