"""Crash- and concurrency-safe file writes shared by the persistent stores.

The result cache and the trace store are both written by many
uncoordinated writers at once: pool workers and separate CLI invocations
sharing one results directory.  Every one of them follows the same
discipline — write a uniquely-named temp file *in the destination
directory*, then ``os.replace`` it over the final name:

* readers never observe a half-written file (rename is atomic on POSIX
  and on NTFS; the temp file lives in the same directory, so the rename
  can never degrade to a cross-device copy);
* duplicate concurrent puts of the same key are benign — both writers
  produce complete files and the last rename wins, which is harmless
  because a key's content is a pure function of the key;
* a writer killed mid-write leaves only a ``.tmp-*`` orphan, never a
  corrupt entry; :func:`sweep_stale_tmp` reaps those opportunistically.

``tests/test_cache_concurrency.py`` hammers both stores from many
processes to pin this contract down.
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path

#: Temp files carry this prefix so readers (and the reaper) can spot them.
TMP_PREFIX = ".tmp-"

#: Orphaned temp files younger than this are presumed to belong to a live
#: writer and are left alone.
STALE_TMP_SECONDS = 3600.0


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Atomically create/overwrite ``path`` with ``data``.

    Safe against concurrent writers of the same path (last complete write
    wins) and against the writer dying at any point (the destination is
    either the old content or the new content, never a torn mix).
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=TMP_PREFIX, suffix=path.suffix
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Text-mode convenience over :func:`atomic_write_bytes` (UTF-8)."""
    atomic_write_bytes(path, text.encode("utf-8"))


def sweep_stale_tmp(root: str | Path, older_than_s: float = STALE_TMP_SECONDS) -> int:
    """Reap ``.tmp-*`` orphans under ``root`` older than ``older_than_s``.

    Returns how many were removed.  Every step tolerates a concurrent
    sweeper (or the orphan's writer finishing after all): a vanished file
    is simply skipped.  Called opportunistically by the stores on their
    first write of a process — never on the hot path.
    """
    root = Path(root)
    removed = 0
    try:
        entries = list(root.glob(f"{TMP_PREFIX}*"))
    except OSError:
        return 0
    cutoff = time.time() - older_than_s
    for entry in entries:
        try:
            if entry.stat().st_mtime < cutoff:
                entry.unlink()
                removed += 1
        except OSError:
            continue  # raced with its writer or another sweeper
    return removed


__all__ = ["TMP_PREFIX", "STALE_TMP_SECONDS", "atomic_write_bytes", "atomic_write_text", "sweep_stale_tmp"]
