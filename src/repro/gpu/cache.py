"""Set-associative cache model with LRU replacement.

Used for the L1 vector cache (16 KB, 4-way) and the shared L2 (2 MB,
16-way) of Table III.  The model tracks hits/misses and filters which
accesses reach memory or the interconnect; data contents are not stored
(the simulator is timing-directed), only tags.

LRU is implemented per set with an access stamp: a touch is one dict
store, and only a fill into a full set scans the set (O(associativity),
small for 4/16-way sets) for its least-recently-used victim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.address_space import BLOCK_BYTES


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """Tag-only set-associative LRU cache over 64 B blocks."""

    def __init__(self, name: str, size_bytes: int, assoc: int, line_bytes: int = BLOCK_BYTES) -> None:
        if size_bytes <= 0 or assoc <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        n_lines = size_bytes // line_bytes
        if n_lines < assoc or n_lines % assoc:
            raise ValueError(
                f"{name}: {size_bytes} B / {line_bytes} B lines not divisible into {assoc}-way sets"
            )
        self.name = name
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.n_sets = n_lines // assoc
        # each set: dict tag -> last-use stamp
        self._sets: list[dict[int, int]] = [dict() for _ in range(self.n_sets)]
        self._stamp = 0
        self.stats = CacheStats()

    def _locate(self, address: int) -> tuple[int, int]:
        block = address // self.line_bytes
        return block % self.n_sets, block // self.n_sets

    def lookup(self, address: int) -> bool:
        """Touch ``address``; True on hit.  Misses do NOT allocate."""
        # _locate, inlined: lookup and fill run on every access
        block = address // self.line_bytes
        n_sets = self.n_sets
        cache_set = self._sets[block % n_sets]
        tag = block // n_sets
        self._stamp += 1
        if tag in cache_set:
            cache_set[tag] = self._stamp
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, address: int) -> int | None:
        """Allocate the line for ``address``; returns the evicted address."""
        block = address // self.line_bytes
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
            self.stats.evictions += 1
            victim_addr = (victim_tag * n_sets + set_idx) * self.line_bytes
        cache_set[tag] = self._stamp
        return victim_addr

    def contains(self, address: int) -> bool:
        """Non-statistical presence probe (does not update LRU)."""
        set_idx, tag = self._locate(address)
        return tag in self._sets[set_idx]

    def invalidate(self, address: int) -> bool:
        set_idx, tag = self._locate(address)
        cache_set = self._sets[set_idx]
        if tag in cache_set:
            del cache_set[tag]
            self.stats.invalidations += 1
            return True
        return False

    def invalidate_page(self, page_base: int, page_bytes: int) -> int:
        """Invalidate every line of a page (used on migration).

        The page's blocks are consecutive, so one pass walks them with one
        ``dict.pop`` each and bumps ``stats.invalidations`` once by the
        number dropped.
        """
        n_sets = self.n_sets
        sets = self._sets
        first = page_base // self.line_bytes
        dropped = 0
        for block in range(first, first - (-page_bytes // self.line_bytes)):
            if sets[block % n_sets].pop(block // n_sets, None) is not None:
                dropped += 1
        self.stats.invalidations += dropped
        return dropped

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)


__all__ = ["CacheStats", "SetAssociativeCache"]
