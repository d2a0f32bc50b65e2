"""Access-counter-based page migration policy.

Models the NVIDIA Volta-style policy the paper adopts (§V-A): a page is
served by direct block access until one remote accessor has touched it
``threshold`` times, at which point the driver migrates the page to that
accessor.  Migration moves the whole 4 KB page (64 block-sized transfers on
the wire) and charges a fixed driver + TLB-shootdown cost, which is why
migration only pays off for high-locality pages (§II-A).  The device
charges that cost: it commits a pulled page ``MigrationConfig.
driver_cycles + shootdown_cycles`` after the page's last block arrives.

Pages can be pinned (e.g. CPU-resident input staged for streaming reads)
to model `cudaMemAdvise`-style hints from the locality API.
"""

from __future__ import annotations

from enum import Enum

from repro.memory.page_table import PageTable


#: Anti-thrash hysteresis: after this many migrations a page is pinned where
#: it is, as real UM drivers do for ping-ponging pages.
MAX_MIGRATIONS_PER_PAGE = 3


class MigrationDecision(Enum):
    DIRECT_ACCESS = "direct_access"  # serve the single block remotely
    MIGRATE = "migrate"  # move the page to the accessor


class AccessCounterMigrationPolicy:
    """Decide direct access vs migration from per-(page, accessor) counters."""

    def __init__(self, page_table: PageTable, threshold: int = 8) -> None:
        if threshold < 1:
            raise ValueError("migration threshold must be >= 1")
        self.page_table = page_table
        self.threshold = threshold
        self._migration_counts: dict[int, int] = {}
        self._pinned: set[int] = set()

    def pin(self, page: int) -> None:
        """Exclude ``page`` from migration (locality-API hint)."""
        self._pinned.add(page)

    def on_remote_access(self, page: int, accessor: int) -> MigrationDecision:
        """Record one remote access and decide how to serve it.

        The access that crosses the threshold is still served remotely (the
        migration happens alongside), matching counter-based prefetch-style
        migration rather than fault-based migration.
        """
        count = self.page_table.record_access(page, accessor)
        if page in self._pinned:
            return MigrationDecision.DIRECT_ACCESS
        if count >= self.threshold:
            return MigrationDecision.MIGRATE
        return MigrationDecision.DIRECT_ACCESS

    def commit_migration(self, page: int, new_owner: int) -> int:
        """Apply the ownership change; returns the previous owner."""
        count = self._migration_counts.get(page, 0) + 1
        self._migration_counts[page] = count
        if count >= MAX_MIGRATIONS_PER_PAGE:
            self.pin(page)  # thrashing page: stop bouncing it around
        return self.page_table.migrate(page, new_owner)


__all__ = ["AccessCounterMigrationPolicy", "MAX_MIGRATIONS_PER_PAGE", "MigrationDecision"]
