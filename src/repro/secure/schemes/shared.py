"""The *Shared* scheme (Fig. 7b).

One message counter — and one pad buffer — serves the send direction to
*all* peers: seeds omit the receiver ID, so a single pre-generated pad works
for whichever destination comes next.  The capacity saving is large (1 send
entry instead of peers × multiplier) but pre-generation barely helps:

* the lone send entry is immediately exhausted by any burst, and
* a receiver can only pre-generate the sender's next pad if it knows the
  next message is for *it* — true only for back-to-back messages to the
  same destination; any destination switch desynchronizes every other
  receiver's pre-generation (a full-latency desync miss).
"""

from __future__ import annotations

from repro.configs import SecurityConfig
from repro.secure.otp_buffer import PadStream
from repro.secure.schemes.base import OtpScheme


class SharedScheme(OtpScheme):
    name = "shared"

    def __init__(self, node: int, peers: list[int], security: SecurityConfig) -> None:
        super().__init__(node, peers, security)
        self._send_stream = PadStream(self._latency, capacity=1)
        self._recv_streams = {p: PadStream(self._latency, capacity=1) for p in peers}
        self._last_dst: int | None = None

    def acquire_send(self, peer: int, now: int) -> tuple[int, bool]:
        wait = self._record(self.send_outcomes, self._send_stream.consume(now))
        # The receiver's pre-generated pad is only for the shared counter's
        # next value if the previous send also went to this peer.
        synced = self._last_dst == peer
        self._last_dst = peer
        return wait, synced

    def acquire_recv(self, peer: int, now: int, synced: bool = True) -> int:
        stream = self._recv_streams[peer]
        wait = stream.consume(now) if synced else stream.consume_desync(now)
        return self._record(self.recv_outcomes, wait)

    def pool_size(self) -> int:
        return self._send_stream.capacity + sum(
            s.capacity for s in self._recv_streams.values()
        )


__all__ = ["SharedScheme"]
