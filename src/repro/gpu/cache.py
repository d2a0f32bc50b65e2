"""Set-associative cache model with LRU replacement.

Used for the L1 vector cache (16 KB, 4-way) and the shared L2 (2 MB,
16-way) of Table III.  The model decides hit or miss and so filters which
accesses reach memory or the interconnect; data contents are not stored
(the simulator is timing-directed), only tags.  It keeps no hit or miss
tallies: ``lookup``'s return value is the one record of a hit.

LRU is kept per set as a list of tags, least recently used first: a hit
or a refill moves its tag to the end, and a fill into a full set evicts
the head.  A set's list is made on its first fill, so a cache holds no
per-set object for a set it never used, and no per-line state but its tag.
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
        # each set: its tags, least recently used first; None until filled
        self._sets: list[list[int] | None] = [None] * self.n_sets

    def lookup(self, address: int) -> bool:
        """Touch ``address``; True on hit.  Misses do NOT allocate."""
        block = address // LINE_BYTES
        n_sets = self.n_sets
        cache_set = self._sets[block % n_sets]
        if cache_set is None:
            return False
        tag = block // n_sets
        if tag in cache_set:
            cache_set.remove(tag)
            cache_set.append(tag)
            return True
        return False

    def fill(self, address: int) -> int | None:
        """Allocate the line for ``address``; returns the evicted address."""
        block = address // LINE_BYTES
        n_sets = self.n_sets
        set_idx = block % n_sets
        cache_set = self._sets[set_idx]
        tag = block // n_sets
        if cache_set is None:
            self._sets[set_idx] = [tag]
            return None
        if tag in cache_set:
            cache_set.remove(tag)
            cache_set.append(tag)
            return None
        victim_addr = None
        if len(cache_set) >= self.assoc:
            victim_addr = (cache_set.pop(0) * n_sets + set_idx) * LINE_BYTES
        cache_set.append(tag)
        return victim_addr

    def invalidate_page(self, page_base: int, page_bytes: int) -> int:
        """Invalidate every line of a page (used on migration).

        The page's blocks are consecutive, so one pass walks them and
        searches only the sets that exist; returns the number of lines
        dropped.
        """
        n_sets = self.n_sets
        sets = self._sets
        first = page_base // LINE_BYTES
        dropped = 0
        for block in range(first, first - (-page_bytes // LINE_BYTES)):
            cache_set = sets[block % n_sets]
            if cache_set is not None:
                tag = block // n_sets
                if tag in cache_set:
                    cache_set.remove(tag)
                    dropped += 1
        return dropped


__all__ = ["LINE_BYTES", "SetAssociativeCache"]
