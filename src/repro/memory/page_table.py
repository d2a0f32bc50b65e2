"""Page table tracking the current owner of every unified-memory page.

In the paper's TEE setting the security monitor validates all page-table
updates (§IV-A); here the table is the simulator's ground truth for where a
block access must be served, and it is updated atomically when a migration
commits.  Per-(page, accessor) access counters feed the migration policy.
"""

from __future__ import annotations


class PageTable:
    """Ownership map plus remote-access counters."""

    def __init__(self, initial_owners: dict[int, int]) -> None:
        self._owner = dict(initial_owners)
        # page -> accessor -> count; nested so a migration clears in O(1)
        self._access_counts: dict[int, dict[int, int]] = {}
        self.migrations = 0

    def owner(self, page: int) -> int:
        try:
            return self._owner[page]
        except KeyError:
            raise KeyError(f"page {page} is not mapped") from None

    def record_access(self, page: int, accessor: int) -> int:
        """Count a remote access by ``accessor``; returns the new count."""
        per_page = self._access_counts.setdefault(page, {})
        count = per_page.get(accessor, 0) + 1
        per_page[accessor] = count
        return count

    def migrate(self, page: int, new_owner: int) -> int:
        """Re-own ``page``; clears its counters.  Returns the old owner."""
        old = self.owner(page)
        if old == new_owner:
            raise ValueError(f"page {page} already owned by node {new_owner}")
        self._owner[page] = new_owner
        self.migrations += 1
        self._access_counts.pop(page, None)
        return old

    def __len__(self) -> int:
        return len(self._owner)


__all__ = ["PageTable"]
