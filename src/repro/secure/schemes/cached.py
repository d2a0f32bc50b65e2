"""The *Cached* scheme (Fig. 7c).

A pool of pad entries equal in size to Private's total is managed like a
cache over (direction, peer) stream keys with LRU replacement.  A stream
that keeps communicating accumulates entries (each miss steals one from the
least-recently-used stream), so — unlike Private's rigid even split — hot
pairs can hold more than ``multiplier`` pads.  The price: a pair evicted
from the table behaves like Shared on its next message (full-latency desync
miss, per §II-C: "otherwise, it adopts Shared using the maximum MsgCTR").
"""

from __future__ import annotations

from repro.configs import SecurityConfig
from repro.secure.otp_buffer import PadStream
from repro.secure.schemes.base import OtpScheme

_SEND, _RECV = 0, 1


class CachedScheme(OtpScheme):
    name = "cached"

    def __init__(self, node: int, peers: list[int], security: SecurityConfig) -> None:
        super().__init__(node, peers, security)
        self.total_entries = security.total_otp_entries(len(peers))
        # The pad table is cache-like (set-associative over pair keys), so
        # one pair's residency is bounded by the way count — modeled as
        # twice Private's per-stream share.
        self.max_per_stream = 2 * security.otp_multiplier
        # Start like Private: entries spread evenly over all stream keys.
        per_stream, leftover = divmod(self.total_entries, 2 * len(peers))
        self._streams: dict[tuple[int, int], PadStream] = {}
        for direction in (_SEND, _RECV):
            for peer in peers:
                extra = 1 if leftover > 0 else 0
                leftover -= extra
                self._streams[(direction, peer)] = PadStream(self._latency, per_stream + extra)
        #: cycle of each stream's latest acquisition, for the LRU victim choice
        self._last_use = dict.fromkeys(self._streams, 0)

    # ------------------------------------------------------------------
    # LRU stealing
    # ------------------------------------------------------------------
    def _steal_entry(self, needy: tuple[int, int], now: int) -> bool:
        """Move one entry from the LRU non-empty stream to ``needy``."""
        if self._streams[needy].capacity >= self.max_per_stream:
            return False
        victim_key = None
        victim_last = None
        for key, stream in self._streams.items():
            if key == needy or stream.capacity == 0:
                continue
            last_use = self._last_use[key]
            if victim_last is None or last_use < victim_last:
                victim_key, victim_last = key, last_use
        if victim_key is None:
            return False
        self._streams[victim_key].shrink(1)
        self._streams[needy].grow(now, 1)
        return True

    def _acquire(self, key: tuple[int, int], now: int, synced: bool) -> int:
        """The wait of one acquisition on stream ``key``."""
        stream = self._streams[key]
        self._last_use[key] = now
        if stream.capacity == 0:
            # Not resident: behave like Shared (full-latency generation)
            # and bring the stream into the table by stealing an entry.
            self._steal_entry(key, now)
            return self._latency
        if not synced:
            return stream.consume_desync(now)
        wait = stream.consume(now)
        if wait * 2 >= self._latency:
            # Under pressure the hot stream grows its residency, which is
            # how Cached concentrates entries on active pairs.  Shallow
            # partials do not steal: the refill pipeline is merely behind.
            self._steal_entry(key, now)
        return wait

    # ------------------------------------------------------------------
    # Scheme interface
    # ------------------------------------------------------------------
    def acquire_send(self, peer: int, now: int) -> tuple[int, bool]:
        # A send-side table miss falls back to Shared semantics with the
        # maximum MsgCTR (§II-C) — a counter the receiver cannot have
        # pre-generated, so the receiver desynchronizes too.
        table_miss = self._streams[(_SEND, peer)].capacity == 0
        wait = self._acquire((_SEND, peer), now, synced=True)
        return self._record(self.send_outcomes, wait), not table_miss

    def acquire_recv(self, peer: int, now: int, synced: bool = True) -> int:
        return self._record(self.recv_outcomes, self._acquire((_RECV, peer), now, synced))

    def pool_size(self) -> int:
        return sum(s.capacity for s in self._streams.values())

    def stream_capacity(self, direction: str, peer: int) -> int:
        key = (_SEND if direction == "send" else _RECV, peer)
        return self._streams[key].capacity


__all__ = ["CachedScheme"]
