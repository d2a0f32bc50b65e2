"""Parallel sweep execution and persistent result caching.

The experiment layer describes *what* to simulate — (workload, config,
seed) cells — and this package decides *how*: deduplicated, cache-backed,
fanned out over worker processes, merged back in deterministic order.

    from repro.runner import SweepJob, SweepRunner, default_cache

    runner = SweepRunner(jobs=4, cache=default_cache())
    reports = runner.run_jobs([SweepJob(spec, config, seed=1, scale=0.5)])
"""

from repro.runner.atomic import atomic_write_bytes, atomic_write_text, sweep_stale_tmp
from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache, default_cache
from repro.runner.jobs import SweepJob, cache_salt, execute_job, job_key
from repro.runner.serialize import report_from_dict, report_to_dict
from repro.runner.sweep import SweepError, SweepRunner, SweepStats, available_cpus, resolve_jobs
from repro.runner.trace_store import (
    DEFAULT_TRACE_DIR,
    TraceStore,
    default_trace_store,
    job_trace_key,
    trace_key,
)
from repro.workloads.registry import is_registry_spec

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "sweep_stale_tmp",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "default_cache",
    "SweepJob",
    "execute_job",
    "job_key",
    "cache_salt",
    "is_registry_spec",
    "report_to_dict",
    "report_from_dict",
    "SweepError",
    "SweepRunner",
    "SweepStats",
    "available_cpus",
    "resolve_jobs",
    "DEFAULT_TRACE_DIR",
    "TraceStore",
    "default_trace_store",
    "trace_key",
    "job_trace_key",
]
