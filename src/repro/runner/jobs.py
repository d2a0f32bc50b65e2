"""Sweep job definition and content-hash cache keys.

A :class:`SweepJob` is one independent simulation cell: a workload at a
seed/scale under one :class:`~repro.configs.SystemConfig`.  Jobs are frozen
and hashable, so identical cells requested twice in one sweep (every figure
re-requests the unsecure baseline) deduplicate structurally.

The persistent cache key is a SHA-256 over a canonical JSON rendering of
everything that determines the result: workload name, seed, scale, lane
count, the *entire* configuration tree, and a salt hashed from the
simulation source.  Changing any swept field — or any simulation module —
changes the hash, so stale entries simply stop being found rather than
needing eviction logic.
Only registry workloads get persistent keys: a custom
:class:`~repro.workloads.registry.WorkloadSpec` (e.g. a synthetic spec
closed over arbitrary knobs) has no stable content identity, so it runs
with the in-memory memo only.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy

import repro
from repro.configs import SystemConfig
from repro.system import MultiGpuSystem, SimulationReport
from repro.workloads.registry import WorkloadSpec, is_registry_spec

#: Bump when the key layout (not the simulated behavior) changes.
KEY_SCHEMA = 1

#: Package paths that cannot change a report or a trace: the front ends and
#: the report consumers.  Every other module's source salts the keys.
_UNSALTED = (
    "cli.py",
    "__main__.py",
    "validation.py",
    "tracing.py",
    "experiments/",
    "verify/",
)


@dataclass(frozen=True)
class SweepJob:
    """One independent (workload, config, seed) simulation."""

    spec: WorkloadSpec
    config: SystemConfig
    seed: int
    scale: float
    n_lanes: int = 8

    def describe(self) -> str:
        scheme = self.config.security.scheme
        if self.config.security.batching:
            scheme = "batching"
        return f"{self.spec.name}/{scheme}/{self.config.n_gpus}gpus/seed{self.seed}/scale{self.scale}"


@functools.cache
def cache_salt() -> str:
    """Salt folded into every result-cache and trace-store key: SHA-256
    over the simulation source and numpy's version, once per process.

    Every ``.py`` file of the package outside :data:`_UNSALTED` counts, by
    path and content, so any change to simulated behavior changes every
    key.  numpy counts because traces come from its ``default_rng``.
    """
    root = Path(repro.__file__).parent
    digest = hashlib.sha256(f"numpy {numpy.__version__}\0".encode())
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        if not name.startswith(_UNSALTED):
            digest.update(f"{name}\0".encode() + path.read_bytes() + b"\0")
    return digest.hexdigest()


def job_key(job: SweepJob) -> str | None:
    """Content hash for the persistent cache, or None when not cacheable."""
    if not is_registry_spec(job.spec):
        return None
    config_material = asdict(job.config)
    # A dormant section cannot affect the result, so it stays out of the
    # key and hashes like a config that predates it.  The fault section
    # also carries the recovery knobs (ack_timeout, max_retries, backoff_*),
    # which are live whenever either hostile layer is enabled.
    attacked = job.config.adversary.enabled
    if not attacked:
        del config_material["adversary"]
    if not (job.config.fault.enabled or attacked):
        del config_material["fault"]
    material = {
        "schema": KEY_SCHEMA,
        "salt": cache_salt(),
        "workload": job.spec.name,
        "seed": job.seed,
        "scale": job.scale,
        "n_lanes": job.n_lanes,
        "config": config_material,
    }
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def execute_job(job: SweepJob, *, trace=None, trace_store=None) -> SimulationReport:
    """Run one cell: obtain its trace and simulate it.  Pure & deterministic.

    The trace can come from three places, in precedence order: an explicit
    ``trace`` (a :class:`~repro.workloads.compiled.CompiledTrace` the sweep
    scheduler already shares across schemes), a ``trace_store`` (a
    :class:`~repro.runner.trace_store.TraceStore` consulted by content
    key), or — the standalone default — fresh generation.  Traces are a
    pure function of ``(workload, n_gpus, seed, scale, n_lanes)``, so the
    resulting :class:`~repro.system.SimulationReport` is bit-identical no
    matter which path supplied the trace (tested in
    ``tests/test_compiled_trace.py``).
    """
    if trace is None:
        if trace_store is not None:
            trace, _source = trace_store.get_or_generate(
                job.spec, job.config.n_gpus, job.seed, job.scale, job.n_lanes
            )
        else:
            trace = job.spec.generate(
                n_gpus=job.config.n_gpus,
                seed=job.seed,
                scale=job.scale,
                n_lanes=job.n_lanes,
            )
    return MultiGpuSystem(job.config).run(trace)


__all__ = ["SweepJob", "execute_job", "job_key", "cache_salt", "KEY_SCHEMA"]
