"""Per-client fair queuing for the service scheduler.

The Unix-socket simulation service (``repro-sim serve``) drains client
submissions through :class:`ClientRoundRobin`.  The policy:

* **round-robin across clients** — one bulk submitter cannot starve
  another client: clients take turns, so every client with queued work is
  served within one full rotation (the starvation-freedom property
  ``tests/test_service.py`` pins down);
* **FIFO within a client** — a client's own submissions dispatch in the
  order it made them.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterator


class ClientRoundRobin:
    """Round-robin across clients, FIFO per client."""

    def __init__(self) -> None:
        # client -> FIFO of items
        self._queues: dict[str, deque[Any]] = {}
        # rotation of clients holding queued work
        self._rotation: deque[str] = deque()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def push(self, item: Any, *, client: str) -> None:
        """Enqueue ``item`` for ``client``."""
        queue = self._queues.setdefault(client, deque())
        # remove()/take() may have emptied the queue while the client kept
        # its (now stale) rotation slot — don't grant a second one.
        if not queue and client not in self._rotation:
            self._rotation.append(client)
        queue.append(item)
        self._count += 1

    def pop(self) -> Any | None:
        """Dispatch the next item, or None when nothing is queued.

        Takes the head of the next client in rotation.  A client with more
        items queued keeps its place in the rotation (at the back), so
        siblings from other clients interleave.
        """
        while self._rotation:
            client = self._rotation.popleft()
            queue = self._queues.get(client)
            if not queue:
                continue  # emptied by remove()/take()
            item = queue.popleft()
            self._count -= 1
            if queue:
                self._rotation.append(client)
            return item
        return None

    def remove(self, item: Any) -> bool:
        """Remove one queued item wherever it sits; False if not queued."""
        for queue in self._queues.values():
            try:
                queue.remove(item)
            except ValueError:
                continue
            self._count -= 1
            return True
        return False

    def take(self, predicate: Callable[[Any], bool]) -> list[Any]:
        """Remove and return every queued item matching ``predicate``.

        Order is deterministic: clients in rotation order, FIFO within a
        client — the order :meth:`pop` would have produced.  Used to pull
        trace-key siblings into a batch that is being dispatched anyway.
        """
        taken: list[Any] = []
        for client in list(self._rotation):
            queue = self._queues.get(client)
            if not queue:
                continue
            matched = [item for item in queue if predicate(item)]
            for item in matched:
                queue.remove(item)
            taken.extend(matched)
        self._count -= len(taken)
        return taken

    def __iter__(self) -> Iterator[Any]:
        """Every queued item (no particular cross-client order)."""
        for queue in self._queues.values():
            yield from queue


__all__ = ["ClientRoundRobin"]
