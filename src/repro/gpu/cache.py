"""Set-associative cache model with LRU replacement.

Used for the L1 vector cache (16 KB, 4-way) and the shared L2 (2 MB,
16-way) of Table III.  The model decides hit or miss and so filters which
accesses reach memory or the interconnect; data contents are not stored
(the simulator is timing-directed), only tags.  It keeps no hit or miss
tallies: ``lookup``'s return value is the one record of a hit.

LRU is implemented per set with an access stamp: a touch is one dict
store, and only a fill into a full set scans the set (O(associativity),
small for 4/16-way sets) for its least-recently-used victim.
"""

from __future__ import annotations

from repro.memory.address_space import BLOCK_BYTES

#: Every cache of Table III holds 64 B lines, one per memory block.
LINE_BYTES = BLOCK_BYTES


class SetAssociativeCache:
    """Tag-only set-associative LRU cache over 64 B blocks."""

    def __init__(self, name: str, size_bytes: int, assoc: int) -> None:
        if size_bytes <= 0 or assoc <= 0:
            raise ValueError("cache geometry must be positive")
        n_lines = size_bytes // LINE_BYTES
        if n_lines < assoc or n_lines % assoc:
            raise ValueError(
                f"{name}: {size_bytes} B / {LINE_BYTES} B lines not divisible into {assoc}-way sets"
            )
        self.name = name
        self.assoc = assoc
        self.n_sets = n_lines // assoc
        # each set: dict tag -> last-use stamp
        self._sets: list[dict[int, int]] = [dict() for _ in range(self.n_sets)]
        self._stamp = 0

    def lookup(self, address: int) -> bool:
        """Touch ``address``; True on hit.  Misses do NOT allocate."""
        block = address // LINE_BYTES
        n_sets = self.n_sets
        cache_set = self._sets[block % n_sets]
        tag = block // n_sets
        self._stamp += 1
        if tag in cache_set:
            cache_set[tag] = self._stamp
            return True
        return False

    def fill(self, address: int) -> int | None:
        """Allocate the line for ``address``; returns the evicted address."""
        block = address // LINE_BYTES
        n_sets = self.n_sets
        set_idx = block % n_sets
        cache_set = self._sets[set_idx]
        tag = block // n_sets
        self._stamp += 1
        if tag in cache_set:
            cache_set[tag] = self._stamp
            return None
        victim_addr = None
        if len(cache_set) >= self.assoc:
            victim_tag = min(cache_set, key=cache_set.get)
            del cache_set[victim_tag]
            victim_addr = (victim_tag * n_sets + set_idx) * LINE_BYTES
        cache_set[tag] = self._stamp
        return victim_addr

    def invalidate_page(self, page_base: int, page_bytes: int) -> int:
        """Invalidate every line of a page (used on migration).

        The page's blocks are consecutive, so one pass walks them with one
        ``dict.pop`` each; returns the number of lines dropped.
        """
        n_sets = self.n_sets
        sets = self._sets
        first = page_base // LINE_BYTES
        dropped = 0
        for block in range(first, first - (-page_bytes // LINE_BYTES)):
            if sets[block % n_sets].pop(block // n_sets, None) is not None:
                dropped += 1
        return dropped


__all__ = ["LINE_BYTES", "SetAssociativeCache"]
