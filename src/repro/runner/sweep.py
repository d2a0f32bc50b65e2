"""Sweep scheduling: trace-shared, cache-backed, serial or process-parallel.

:class:`SweepRunner` takes a list of :class:`~repro.runner.jobs.SweepJob`
cells and returns their :class:`~repro.system.SimulationReport` results *in
input order*, regardless of how the work was executed:

1. structurally identical jobs are deduplicated (every figure re-requests
   the unsecure baseline per workload),
2. cells present in the persistent cache are loaded, not simulated,
3. the remaining cells are grouped by **trace key** — cells that differ
   only in their security configuration replay literally the same
   :class:`~repro.workloads.compiled.CompiledTrace`, generated (or loaded
   from the on-disk trace store) exactly once,
4. execution mode is chosen: serial runs groups in-process; parallel fans
   trace-key groups out over a ``ProcessPoolExecutor`` as *chunks*, so
   each worker round-trip carries several cells and amortizes its trace
   load across them.  Parallel is picked only when it can plausibly win —
   more than one worker requested, more than one CPU present, and enough
   pending cells to amortize pool startup.  The measured failure mode this
   guards against: on a single-core host (or a two-cell grid) pool spawn
   + IPC costs more than the simulations themselves,
5. anything the pool could not produce (pickling failure, worker crash or
   exception, a broken pool, an OS without working process pools) falls
   back to in-process serial execution with bounded retries.

Each cell is a pure deterministic function of its job description, so the
merge is trivially deterministic: results carry no trace of where or in
what order they ran, and serial / parallel / cached runs of the same sweep
produce bit-identical reports (tested in ``tests/test_sweep_runner.py`` and
``tests/test_compiled_trace.py``).

Workers receive registry workloads *by name* and rebuild both the spec and
the trace on their side — the spec from the registry, the trace from a
process-local :class:`~repro.runner.trace_store.TraceStore` (so a chunk of
N schemes loads or generates its trace once, and a long-lived worker reuses
it across chunks).  That keeps the cross-process payload free of closures
and of multi-megabyte trace arrays; non-registry specs simply run serially
in the parent.  (The alternative — generating in the parent and shipping
the compiled arrays through the pool pickles — was measured slower: the
trace bytes dominate the IPC cost, while a worker-side store load is a
single mmap-free ``.npz`` read.  See docs/PERFORMANCE.md.)

:class:`SweepStats` records how the last run was executed — chosen mode,
cell provenance, trace-reuse counts, and the parent's time blocked on the
pool (``ipc_s``).  The sweep wall times of record come from
``benchmarks/e2e`` (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Sequence

from repro.system import SimulationReport

from repro.runner.cache import ResultCache
from repro.runner.jobs import SweepJob, execute_job, job_key
from repro.runner.serialize import report_from_dict
from repro.runner.trace_store import TraceStore, default_trace_store, job_trace_key
from repro.workloads.registry import is_registry_spec


class SweepError(RuntimeError):
    """A sweep cell failed on every execution attempt."""


#: A sweep only goes parallel when at least this many cells are pending —
#: below it, pool spawn + per-chunk IPC exceeds the simulation time saved
#: (measured on a 9-cell sweep; see docs/PERFORMANCE.md).
PARALLEL_MIN_CELLS = 4

#: Extra serial attempts per cell after its first failure.  Simulations
#: are deterministic, so this only rescues a transient host error.
RETRIES = 1


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the host's cores, which overstates what a
    containerized / cgroup-limited process (a CI runner, a pod) is allowed
    to use.  The scheduler affinity mask is the truth where the platform
    exposes it; fall back to ``cpu_count`` elsewhere (macOS, some BSDs).
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def resolve_jobs(jobs: int | None) -> int:
    """Effective worker count: explicit argument, else ``REPRO_JOBS``, else 1.

    The result is capped at :func:`available_cpus` — asking for more
    workers than the affinity mask allows only oversubscribes the pool
    (every worker is CPU-bound for its whole chunk), so the cap loses
    nothing and keeps cgroup-limited runners from thrashing.
    """
    if jobs is None:
        try:
            jobs = int(os.environ.get("REPRO_JOBS", "1"))
        except ValueError:
            jobs = 1
    return max(1, min(int(jobs), available_cpus()))


#: Process-local trace stores for pool workers, keyed by disk root: one per
#: (worker process, root), created on first use, shared across every chunk
#: that worker executes against that root.
_worker_trace_stores: dict[str | None, TraceStore] = {}


def _worker(
    store_root: str | None,
    payload: tuple[tuple[str, Any, int, float, int], ...],
) -> list[dict[str, Any]]:
    """Process-pool entry point: run one chunk of cells sharing a trace key.

    The chunk's jobs are rebuilt from the registry by name; the first job
    pulls the chunk's trace out of this worker's process-local store (disk
    hit, or one generation) and every subsequent job in the chunk replays
    the same in-memory object.  ``store_root`` is the parent runner's store
    root (None for memo-only), so workers read and write the same disk
    layer as the parent instead of a default of their own.  Returns the
    reports as JSON-safe dicts — the exact serialization the cache uses —
    so the parent-side decode path is shared with cache loads.
    """
    from repro.workloads import get_workload

    from repro.runner.serialize import report_to_dict

    store = _worker_trace_stores.get(store_root)
    if store is None:
        store = _worker_trace_stores[store_root] = TraceStore(store_root)

    out: list[dict[str, Any]] = []
    for name, config, seed, scale, n_lanes in payload:
        job = SweepJob(
            spec=get_workload(name), config=config, seed=seed, scale=scale, n_lanes=n_lanes
        )
        out.append(report_to_dict(execute_job(job, trace_store=store)))
    return out


@dataclass
class SweepStats:
    """How the cells of the last ``run_jobs`` call were executed.

    ``ipc_s`` is the parent's wall-clock time blocked on pool futures —
    worker compute plus pickling — for chunks that ran remotely.
    """

    deduplicated: int = 0
    cache_hits: int = 0
    parallel_runs: int = 0
    serial_runs: int = 0
    retries: int = 0
    fallbacks: int = 0  # cells the pool failed and serial execution rescued
    mode: str = ""  # the mode the last run chose: "serial" or "parallel"
    trace_reused: int = 0  # cells served by an already-loaded trace (memo)
    trace_store_hits: int = 0  # cells whose trace loaded from the disk store
    ipc_s: float = 0.0


@dataclass
class SweepRunner:
    """Runs simulation cells with trace sharing, caching, and parallelism.

    ``jobs``         worker processes (1 = serial; None = ``REPRO_JOBS`` or 1)
    ``cache``        optional :class:`ResultCache`; None disables persistence
    ``trace_store``  :class:`TraceStore` for cross-scheme trace sharing;
                     None builds :func:`default_trace_store` on first use
    ``stats``        :class:`SweepStats` of the last ``run_jobs`` call
    """

    jobs: int | None = None
    cache: ResultCache | None = None
    trace_store: TraceStore | None = None
    stats: SweepStats = field(default_factory=SweepStats)

    def run_jobs(self, sweep_jobs: Sequence[SweepJob]) -> list[SimulationReport]:
        """Execute every cell and return reports in input order."""
        if self.trace_store is None:
            self.trace_store = default_trace_store()
        n_workers = resolve_jobs(self.jobs)
        self.stats = SweepStats()

        # Stable-order dedup: dict preserves first-seen order.
        unique: dict[SweepJob, SimulationReport | None] = {}
        for job in sweep_jobs:
            if job not in unique:
                unique[job] = None
        self.stats.deduplicated = len(sweep_jobs) - len(unique)

        keys: dict[SweepJob, str | None] = {job: job_key(job) for job in unique}
        if self.cache is not None:
            for job in unique:
                key = keys[job]
                if key is not None:
                    cached = self.cache.load(key)
                    if cached is not None:
                        unique[job] = cached
                        self.stats.cache_hits += 1

        pending = [job for job, report in unique.items() if report is None]
        self.stats.mode = self._resolve_mode(n_workers, len(pending))
        if self.stats.mode == "parallel":
            self._run_parallel(pending, unique, n_workers)

        for job in pending:
            if unique[job] is None:
                unique[job] = self._run_cell(job)

        if self.cache is not None:
            for job in pending:
                key = keys[job]
                report = unique[job]
                if key is not None and report is not None:
                    try:
                        self.cache.store(key, report, describe={"job": job.describe()})
                    except OSError:
                        break  # cache root unwritable — results still stand

        return [unique[job] for job in sweep_jobs]  # type: ignore[misc]

    def _resolve_mode(self, n_workers: int, n_pending: int) -> str:
        """Pick the execution mode for this run: ``"serial"`` or ``"parallel"``."""
        if n_workers <= 1 or available_cpus() <= 1:
            return "serial"
        if n_pending < PARALLEL_MIN_CELLS:
            return "serial"
        return "parallel"

    # ------------------------------------------------------------------
    # Trace-key grouping
    # ------------------------------------------------------------------
    @staticmethod
    def _group_by_trace(jobs: Sequence[SweepJob]) -> list[list[SweepJob]]:
        """Group cells sharing a trace key, preserving first-seen order.

        Cells without a key (non-registry specs) each form their own
        singleton group — nothing can be shared for them.
        """
        groups: dict[object, list[SweepJob]] = {}
        for job in jobs:
            key = job_trace_key(job)
            groups.setdefault(key if key is not None else id(job), []).append(job)
        return list(groups.values())

    # ------------------------------------------------------------------
    # Execution strategies
    # ------------------------------------------------------------------
    def _run_parallel(
        self,
        pending: list[SweepJob],
        results: dict[SweepJob, SimulationReport | None],
        n_workers: int,
    ) -> None:
        """Best-effort chunked pool execution; failures stay None for serial.

        The pool stack (``concurrent.futures.process``, ``multiprocessing``)
        is imported here, so a serial sweep never loads it.
        """
        from concurrent.futures import ProcessPoolExecutor

        dispatchable = [job for job in pending if is_registry_spec(job.spec)]
        if len(dispatchable) < 2:
            return
        chunks = self._group_by_trace(dispatchable)
        root = self.trace_store.root
        store_root = str(root) if root is not None else None
        try:
            pool = ProcessPoolExecutor(max_workers=min(n_workers, len(chunks)))
        except (OSError, ValueError, NotImplementedError):
            self.stats.fallbacks += len(dispatchable)
            return
        try:
            futures = []
            for chunk in chunks:
                payload = tuple(
                    (job.spec.name, job.config, job.seed, job.scale, job.n_lanes)
                    for job in chunk
                )
                try:
                    futures.append((chunk, pool.submit(_worker, store_root, payload)))
                except Exception:
                    self.stats.fallbacks += len(chunk)
            for chunk, future in futures:
                try:
                    started = perf_counter()
                    encoded = future.result()
                    for job, blob in zip(chunk, encoded):
                        results[job] = report_from_dict(blob)
                    self.stats.ipc_s += perf_counter() - started
                    self.stats.parallel_runs += len(chunk)
                    # every cell after a chunk's first replays its trace
                    self.stats.trace_reused += max(0, len(chunk) - 1)
                except Exception:
                    self.stats.fallbacks += len(chunk)
        finally:
            pool.shutdown(cancel_futures=True)

    def _run_cell(self, job: SweepJob) -> SimulationReport:
        """Run one cell in-process, sharing its trace through the store,
        with :data:`RETRIES` extra attempts."""
        trace = None
        if is_registry_spec(job.spec):
            trace, source = self.trace_store.get_or_generate(
                job.spec, job.config.n_gpus, job.seed, job.scale, job.n_lanes
            )
            if source != "generated":
                self.stats.trace_reused += 1
                if source == "disk":
                    self.stats.trace_store_hits += 1
        attempts = RETRIES + 1
        last_error: Exception | None = None
        for attempt in range(attempts):
            try:
                report = execute_job(job, trace=trace)
                self.stats.serial_runs += 1
                return report
            except Exception as exc:  # deterministic sims rarely recover, but
                last_error = exc  # a retry costs little next to a lost sweep
                if attempt + 1 < attempts:
                    self.stats.retries += 1
        raise SweepError(
            f"sweep cell {job.describe()} failed after {attempts} attempt(s)"
        ) from last_error


__all__ = [
    "PARALLEL_MIN_CELLS",
    "RETRIES",
    "SweepRunner",
    "SweepStats",
    "SweepError",
    "available_cpus",
    "resolve_jobs",
]
