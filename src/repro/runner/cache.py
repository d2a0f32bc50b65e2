"""Persistent on-disk result cache for simulation sweeps.

One JSON file per simulated cell under the cache root (default
``results/.cache/``), named by the cell's content hash.  Because the key
already encodes the full configuration and the source salt, lookups are a
pure existence check and invalidation is automatic: a changed config or
simulation source hashes to a different file.

Writes are atomic (unique tmp file in the cache directory + ``os.replace``
— see :mod:`repro.runner.atomic`) so any number of concurrent writers —
pool workers, parallel sweeps sharing one cache root — can store the
same key at once: every writer produces a
complete file, the last rename wins, and the winner's content is identical
to every loser's because a key's report is a pure function of the key.  A
killed run can never leave a half-written entry that a later run would
trust; unreadable or mismatched entries are treated as misses and
overwritten.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.system import SimulationReport

from repro.runner.atomic import atomic_write_text, sweep_stale_tmp
from repro.runner.serialize import report_from_dict, report_to_dict

#: Default cache root, relative to the working directory.
DEFAULT_CACHE_DIR = Path("results") / ".cache"


class ResultCache:
    """Content-addressed store of :class:`SimulationReport` JSON blobs."""

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self._swept_tmp = False

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> SimulationReport | None:
        """Return the cached report for ``key``, or None on any miss."""
        path = self.path_for(key)
        try:
            data = json.loads(path.read_text())
            report = report_from_dict(data["report"])
        except (OSError, ValueError, KeyError, TypeError):
            # Missing, corrupt, or written by an incompatible schema: a miss.
            self.misses += 1
            return None
        self.hits += 1
        return report

    def store(self, key: str, report: SimulationReport, describe: dict[str, Any] | None = None) -> None:
        """Atomically persist ``report`` under ``key``.

        ``describe`` is an optional human-readable echo of the key material
        (workload/seed/scheme), stored purely to make cache files greppable.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        if not self._swept_tmp:
            # First write of this process: reap tmp orphans a killed writer
            # left behind (bounded, tolerant of concurrent sweepers).
            self._swept_tmp = True
            sweep_stale_tmp(self.root)
        payload = {"key": key, "describe": describe or {}, "report": report_to_dict(report)}
        atomic_write_text(self.path_for(key), json.dumps(payload))
        self.stores += 1

    def __repr__(self) -> str:
        return f"ResultCache({self.root}, hits={self.hits}, misses={self.misses}, stores={self.stores})"


def default_cache(
    cache_dir: str | Path | None = None, use_cache: bool | None = None
) -> ResultCache | None:
    """Build the cache an entry point should use.

    Resolution order: an explicit ``use_cache`` wins; otherwise the
    ``REPRO_NO_CACHE`` environment variable disables caching (what CI
    sets); otherwise caching is on.  ``cache_dir`` (or ``REPRO_CACHE_DIR``)
    overrides the default ``results/.cache`` root.
    """
    if use_cache is None:
        use_cache = not os.environ.get("REPRO_NO_CACHE")
    if not use_cache:
        return None
    root = cache_dir or os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
    return ResultCache(root)


__all__ = ["ResultCache", "default_cache", "DEFAULT_CACHE_DIR"]
