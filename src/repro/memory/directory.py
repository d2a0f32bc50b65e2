"""Block directory: outstanding remote block fetches with request merging.

When several compute-unit lanes of one GPU miss on the same remote 64 B
block while a fetch is already in flight, the hardware merges them into the
existing MSHR entry instead of issuing duplicate interconnect requests.
This directory provides that merging, which matters for traffic fidelity:
without it, bursty lanes would multiply remote traffic that real GPUs
coalesce.

Each GPU owns one directory, and it is that GPU's only record of an
in-flight remote read: the read's response is matched to its fetch by
block alone.
"""

from __future__ import annotations

from typing import Callable


class BlockDirectory:
    """Tracks one node's in-flight block fetches."""

    def __init__(self) -> None:
        # block -> list of completion callbacks
        self._pending: dict[int, list[Callable[[int], None]]] = {}

    def request(self, block: int, on_complete: Callable[[int], None]) -> bool:
        """Register interest in ``block``.

        Returns True if the caller must issue a new fetch, False if it was
        merged into an in-flight one.  ``on_complete(finish_cycle)`` fires
        when the data arrives either way.
        """
        waiters = self._pending.get(block)
        if waiters is not None:
            waiters.append(on_complete)
            return False
        self._pending[block] = [on_complete]
        return True

    def complete(self, block: int, finish_cycle: int) -> int:
        """Fire all waiters for ``block``; returns how many were woken."""
        waiters = self._pending.pop(block, None)
        if waiters is None:
            raise KeyError(f"no pending fetch for block {block}")
        for callback in waiters:
            callback(finish_cycle)
        return len(waiters)

    def in_flight(self, block: int) -> bool:
        return block in self._pending

    def pending_count(self) -> int:
        return len(self._pending)


__all__ = ["BlockDirectory"]
