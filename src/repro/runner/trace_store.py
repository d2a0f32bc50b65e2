"""Content-addressed trace store: generate each trace once, share it everywhere.

Every figure in the paper is a sweep of schemes × workloads over *identical*
traces — the swept axis is the security configuration, never the workload
itself.  Before this store, ``execute_job`` regenerated the trace for every
cell: a 6-scheme sweep paid 6× trace generation per workload, and every
pool worker paid it again.

The store is two layers with one key:

* **in-process memo** — a dict from trace key to the shared (immutable)
  :class:`~repro.workloads.compiled.CompiledTrace` instance.  Within one
  runner every scheme replays literally the same object.
* **on-disk store** — one ``.npz`` per key under the store root (default
  ``results/.tracestore/``), written atomically, so separate processes —
  pool workers, repeated CLI invocations — load instead of regenerate.

The key is a SHA-256 over exactly what determines the trace:
``(workload, n_gpus, seed, scale, n_lanes)`` plus the compiled-layout
schema and the source salt of :func:`~repro.runner.jobs.cache_salt`.
Note what is *not* in the key: the ``SystemConfig``.  Traces are
config-independent by construction — that is the whole point of sharing
them across schemes.

Only registry workloads get keys (a custom
:class:`~repro.workloads.registry.WorkloadSpec` closed over arbitrary knobs
has no stable content identity); everything else simply generates.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.runner.atomic import atomic_write_bytes, sweep_stale_tmp
from repro.runner.jobs import cache_salt
from repro.workloads.compiled import TRACE_SCHEMA, CompiledTrace, dump_bytes, load_bytes
from repro.workloads.registry import WorkloadSpec, is_registry_spec

#: Default on-disk store root, relative to the working directory.
DEFAULT_TRACE_DIR = Path("results") / ".tracestore"


def trace_key(
    workload: str, n_gpus: int, seed: int, scale: float, n_lanes: int
) -> str:
    """Content hash of everything that determines a registry trace."""
    material = {
        "schema": TRACE_SCHEMA,
        "salt": cache_salt(),
        "workload": workload,
        "n_gpus": n_gpus,
        "seed": seed,
        "scale": scale,
        "n_lanes": n_lanes,
    }
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def job_trace_key(job) -> str | None:
    """Trace key for a sweep job, or None when its spec is not cacheable."""
    if not is_registry_spec(job.spec):
        return None
    return trace_key(job.spec.name, job.config.n_gpus, job.seed, job.scale, job.n_lanes)


class TraceStore:
    """Two-layer (memo + disk) store of compiled traces.

    ``root=None`` disables the disk layer: the store is then a pure
    in-process memo (what ``REPRO_NO_TRACE_STORE`` selects — the memo alone
    already de-duplicates generation within a sweep).
    """

    def __init__(self, root: str | Path | None = DEFAULT_TRACE_DIR) -> None:
        self.root = Path(root) if root is not None else None
        self._memo: dict[str, CompiledTrace] = {}
        self._swept_tmp = False
        self.memo_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path | None:
        return self.root / f"{key}.npz" if self.root is not None else None

    def get(self, key: str) -> CompiledTrace | None:
        """Memo first, then disk; promotes disk hits into the memo."""
        trace = self._memo.get(key)
        if trace is not None:
            self.memo_hits += 1
            return trace
        path = self.path_for(key)
        if path is not None:
            try:
                trace = load_bytes(path.read_bytes())
            except (OSError, ValueError):
                trace = None  # missing, corrupt, or stale schema: a miss
            if trace is not None:
                self.disk_hits += 1
                self._memo[key] = trace
                return trace
        self.misses += 1
        return None

    def put(self, key: str, trace: CompiledTrace) -> None:
        """Insert into the memo and (best-effort, atomically) onto disk.

        Concurrent puts of the same key — pool workers or parallel CLI
        runs racing on a shared store root — are benign:
        each writes a complete temp file and the last atomic rename wins
        with byte-identical content (traces are a pure function of the
        key; see :mod:`repro.runner.atomic`).
        """
        self._memo[key] = trace
        path = self.path_for(key)
        if path is None:
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            if not self._swept_tmp:
                self._swept_tmp = True
                sweep_stale_tmp(self.root)
            atomic_write_bytes(path, dump_bytes(trace))
            self.stores += 1
        except OSError:
            pass  # unwritable store root — the memo still serves this run

    # ------------------------------------------------------------------
    # The one entry point the runner uses
    # ------------------------------------------------------------------
    def get_or_generate(
        self,
        spec: WorkloadSpec,
        n_gpus: int,
        seed: int,
        scale: float,
        n_lanes: int,
    ) -> tuple[CompiledTrace, str]:
        """Return the shared trace and where it came from
        (``"memo"`` / ``"disk"`` / ``"generated"``)."""
        key = trace_key(spec.name, n_gpus, seed, scale, n_lanes) if is_registry_spec(spec) else None
        if key is not None:
            before_disk = self.disk_hits
            trace = self.get(key)
            if trace is not None:
                return trace, ("disk" if self.disk_hits > before_disk else "memo")
        trace = spec.generate(n_gpus=n_gpus, seed=seed, scale=scale, n_lanes=n_lanes)
        if key is not None:
            self.put(key, trace)
        return trace, "generated"

    def __repr__(self) -> str:
        return (
            f"TraceStore({self.root}, memo_hits={self.memo_hits}, "
            f"disk_hits={self.disk_hits}, misses={self.misses}, stores={self.stores})"
        )


def default_trace_store() -> TraceStore:
    """Build the trace store an entry point should use.

    ``REPRO_NO_TRACE_STORE`` drops the disk layer (the in-process memo
    always stays — it is free and required for cross-scheme sharing);
    ``REPRO_TRACE_DIR`` overrides the default root.
    """
    if os.environ.get("REPRO_NO_TRACE_STORE"):
        return TraceStore(root=None)
    return TraceStore(os.environ.get("REPRO_TRACE_DIR") or DEFAULT_TRACE_DIR)


__all__ = [
    "DEFAULT_TRACE_DIR",
    "TraceStore",
    "trace_key",
    "job_trace_key",
    "default_trace_store",
]
