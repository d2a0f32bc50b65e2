"""The *Private* scheme (Fig. 7a).

Every (direction, peer) stream owns ``otp_multiplier`` dedicated pad
entries ("OTP Nx"), and per-pair message counters stay perfectly
synchronized, so the receiver's pre-generation is always for the right
counter — misses come only from bursts outrunning the per-stream capacity.
Storage grows quadratically with the processor count (Table I), which is
exactly the problem the Dynamic scheme addresses with the same pool size.
"""

from __future__ import annotations

from repro.configs import SecurityConfig
from repro.secure.otp_buffer import PadStream
from repro.secure.schemes.base import OtpScheme


class PrivateScheme(OtpScheme):
    name = "private"

    def __init__(self, node: int, peers: list[int], security: SecurityConfig) -> None:
        super().__init__(node, peers, security)
        k = security.otp_multiplier
        self._send_streams = {p: PadStream(self._latency, k) for p in peers}
        self._recv_streams = {p: PadStream(self._latency, k) for p in peers}

    def acquire_send(self, peer: int, now: int) -> tuple[int, bool]:
        return self._record(self.send_outcomes, self._send_streams[peer].consume(now)), True

    def acquire_recv(self, peer: int, now: int, synced: bool = True) -> int:
        stream = self._recv_streams[peer]
        wait = stream.consume(now) if synced else stream.consume_desync(now)
        return self._record(self.recv_outcomes, wait)

    def pool_size(self) -> int:
        return sum(s.capacity for s in self._send_streams.values()) + sum(
            s.capacity for s in self._recv_streams.values()
        )

    def stream_capacity(self, direction: str, peer: int) -> int:
        streams = self._send_streams if direction == "send" else self._recv_streams
        return streams[peer].capacity


__all__ = ["PrivateScheme"]
