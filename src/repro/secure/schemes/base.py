"""Common interface and bookkeeping for OTP buffer-management schemes.

A scheme instance lives on one processor and answers two questions:

* ``acquire_send(peer, now)`` — how long must an outgoing message to
  ``peer`` wait for its encryption/authentication pads, and will the
  receiver's pre-generated pad be *synced* (usable) for this message?
* ``acquire_recv(peer, now, synced)`` — how long does the incoming-side
  pad acquisition take, given the sender-declared sync state?

An adaptive scheme also defines the monitoring hooks ``note_send`` and
``note_recv``; the others leave them ``None`` and the channel skips them.

Every acquisition is recorded into per-direction hit/partial/miss ratio
stats (the Figs 10/22 decomposition), counted straight into each ratio's
dict under the outcome's plain ``key``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.configs import SecurityConfig
from repro.secure.otp_buffer import PadGrant
from repro.sim.stats import RatioStat


@dataclass(slots=True)
class SendGrant:
    """Sender-side pad grant plus the receiver-sync declaration.

    Built once per secured message: slotted and not frozen, so building it
    is two plain stores.
    """

    grant: PadGrant
    receiver_synced: bool


class OtpScheme(ABC):
    """Base class: identity, configuration, and outcome statistics."""

    name = "abstract"

    def __init__(
        self,
        node: int,
        peers: list[int],
        security: SecurityConfig,
    ) -> None:
        if node in peers:
            raise ValueError("a node cannot be its own peer")
        if not peers:
            raise ValueError("scheme needs at least one peer")
        self.node = node
        self.peers = list(peers)
        self.security = security
        self._send_outcomes = RatioStat("send_otp")
        self._recv_outcomes = RatioStat("recv_otp")
        self._send_counts = self._send_outcomes.counts
        self._recv_counts = self._recv_outcomes.counts

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    @abstractmethod
    def acquire_send(self, peer: int, now: int) -> SendGrant:
        """Acquire the send-direction pads for a message to ``peer``."""

    @abstractmethod
    def acquire_recv(self, peer: int, now: int, synced: bool = True) -> PadGrant:
        """Acquire the receive-direction pads for a message from ``peer``."""

    @abstractmethod
    def pool_size(self) -> int:
        """Total OTP buffer entries this scheme holds on this processor."""

    #: Monitoring hooks ``(peer, now, demand)``; only DynamicScheme defines them.
    note_send = None
    note_recv = None

    # ------------------------------------------------------------------
    # Shared bookkeeping
    # ------------------------------------------------------------------
    def _record_send(self, grant: PadGrant) -> None:
        counts = self._send_counts
        key = grant.outcome.key
        counts[key] = counts.get(key, 0) + 1

    def _record_recv(self, grant: PadGrant) -> None:
        counts = self._recv_counts
        key = grant.outcome.key
        counts[key] = counts.get(key, 0) + 1

    @property
    def send_outcomes(self) -> RatioStat:
        return self._send_outcomes

    @property
    def recv_outcomes(self) -> RatioStat:
        return self._recv_outcomes


__all__ = ["OtpScheme", "SendGrant"]
