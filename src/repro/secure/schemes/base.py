"""Common interface and bookkeeping for OTP buffer-management schemes.

A scheme instance lives on one processor and answers two questions:

* ``acquire_send(peer, now)`` — how long must an outgoing message to
  ``peer`` wait for its encryption/authentication pads, and will the
  receiver's pre-generated pad be *synced* (usable) for this message?
  Returns ``(wait, receiver_synced)``.
* ``acquire_recv(peer, now, synced)`` — how long does the incoming-side
  pad acquisition take, given the sender-declared sync state?  Returns
  the wait.

An adaptive scheme also defines the monitoring hooks ``note_send`` and
``note_recv``; the others leave them ``None`` and the channel skips them.

Every acquisition is recorded into the per-direction hit/partial/miss
ratio stats ``send_outcomes``/``recv_outcomes`` (the Figs 10/22
decomposition).  :meth:`OtpScheme._record` is the one place a wait is
sorted into its bucket: a wait of 0 is a hit, a wait below the AES-GCM
latency is partial, and a wait of the full latency is a miss.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.configs import SecurityConfig
from repro.sim.stats import RatioStat


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
        self._latency = security.aes_gcm_latency
        self.send_outcomes = RatioStat("send_otp")
        self.recv_outcomes = RatioStat("recv_otp")

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    @abstractmethod
    def acquire_send(self, peer: int, now: int) -> tuple[int, bool]:
        """Acquire the send-direction pads for a message to ``peer``;
        returns ``(wait, receiver_synced)``."""

    @abstractmethod
    def acquire_recv(self, peer: int, now: int, synced: bool = True) -> int:
        """Acquire the receive-direction pads for a message from ``peer``;
        returns the wait."""

    @abstractmethod
    def pool_size(self) -> int:
        """Total OTP buffer entries this scheme holds on this processor."""

    #: Monitoring hooks ``(peer, now, demand)``; only DynamicScheme defines them.
    note_send = None
    note_recv = None

    # ------------------------------------------------------------------
    # Shared bookkeeping
    # ------------------------------------------------------------------
    def _record(self, outcomes: RatioStat, wait: int) -> int:
        """Count one acquisition's wait in its Figs 10/22 bucket of
        ``outcomes``; returns ``wait``."""
        key = "hit" if not wait else "partial" if wait < self._latency else "miss"
        counts = outcomes.counts
        counts[key] = counts.get(key, 0) + 1
        return wait


__all__ = ["OtpScheme"]
