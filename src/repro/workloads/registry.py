"""Workload registry: the 17 benchmarks of Table IV plus the collectives.

Each entry binds a workload (name, abbreviation, suite, RPKI class) to its
trace generator.  Experiments iterate ``all_workloads()`` — the Table IV
set, in the paper's presentation order — or ``all_collectives()`` — the
NCCL-style collective-communication suite (``rpki_class == "collective"``,
see ``docs/WORKLOADS.md``); anything that needs one workload looks it up
by name or abbreviation via ``get_workload``, which spans both sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.workloads.compiled import CompiledTrace
from repro.workloads.suites import amdappsdk, dnnmark, heteromark, nccl, polybench, shoc

Builder = Callable[..., CompiledTrace]


@dataclass(frozen=True)
class WorkloadSpec:
    """One Table IV row."""

    name: str
    abbr: str
    suite: str
    rpki_class: str  # the paper's declared class: high / medium / low
    builder: Builder

    def generate(
        self, n_gpus: int = 4, seed: int = 0, scale: float = 1.0, n_lanes: int = 8
    ) -> CompiledTrace:
        """Build this workload's trace for an ``n_gpus`` system."""
        return self.builder(n_gpus=n_gpus, seed=seed, scale=scale, n_lanes=n_lanes)


_SPECS = [
    # High RPKI
    WorkloadSpec("matrixtranspose", "mt", "AMD APP SDK", "high", amdappsdk.matrixtranspose),
    WorkloadSpec("relu", "relu", "DNNMark", "high", dnnmark.relu),
    WorkloadSpec("pagerank", "pr", "Hetero-Mark", "high", heteromark.pagerank),
    WorkloadSpec("syr2k", "syr2k", "Polybench", "high", polybench.syr2k),
    WorkloadSpec("spmv", "spmv", "SHOC", "high", shoc.spmv),
    # Medium RPKI
    WorkloadSpec("simpleconvolution", "sc", "AMD APP SDK", "medium", amdappsdk.simpleconvolution),
    WorkloadSpec("matrixmultiplication", "mm", "AMD APP SDK", "medium", amdappsdk.matrixmultiplication),
    WorkloadSpec("atax", "atax", "Polybench", "medium", polybench.atax),
    WorkloadSpec("bicg", "bicg", "Polybench", "medium", polybench.bicg),
    WorkloadSpec("gesummv", "ges", "Polybench", "medium", polybench.gesummv),
    WorkloadSpec("mvt", "mvt", "Polybench", "medium", polybench.mvt),
    WorkloadSpec("stencil2d", "st", "SHOC", "medium", shoc.stencil2d),
    WorkloadSpec("fft", "fft", "SHOC", "medium", shoc.fft),
    WorkloadSpec("kmeans", "km", "Hetero-Mark", "medium", heteromark.kmeans),
    # Low RPKI
    WorkloadSpec("floydwarshall", "floyd", "AMD APP SDK", "low", amdappsdk.floydwarshall),
    WorkloadSpec("aes", "aes", "Hetero-Mark", "low", heteromark.aes_cipher),
    WorkloadSpec("fir", "fir", "Hetero-Mark", "low", heteromark.fir),
]

#: The collective-communication suite (not part of Table IV): NCCL-style
#: traffic patterns whose per-peer, per-direction phase structure the
#: kernel workloads above never produce.  See ``docs/WORKLOADS.md``.
_COLLECTIVE_SPECS = [
    WorkloadSpec("allreduce_ring", "arr", "NCCL", "collective", nccl.allreduce_ring),
    WorkloadSpec("allreduce_tree", "art", "NCCL", "collective", nccl.allreduce_tree),
    WorkloadSpec("allgather", "ag", "NCCL", "collective", nccl.allgather),
    WorkloadSpec("reducescatter", "rs", "NCCL", "collective", nccl.reducescatter),
    WorkloadSpec("broadcast", "bc", "NCCL", "collective", nccl.broadcast),
    WorkloadSpec("halo2d", "halo", "NCCL", "collective", nccl.halo2d),
]

_BY_NAME = {spec.name: spec for spec in _SPECS + _COLLECTIVE_SPECS}
_BY_ABBR = {spec.abbr: spec for spec in _SPECS + _COLLECTIVE_SPECS}


def all_workloads() -> list[WorkloadSpec]:
    """Every Table IV workload, in the paper's order."""
    return list(_SPECS)


def all_collectives() -> list[WorkloadSpec]:
    """The collective-communication suite, ring-to-grid order."""
    return list(_COLLECTIVE_SPECS)


def workloads_in_class(rpki_class: str) -> list[WorkloadSpec]:
    matching = [
        spec
        for spec in _SPECS + _COLLECTIVE_SPECS
        if spec.rpki_class == rpki_class
    ]
    if not matching:
        raise ValueError(f"no workloads in RPKI class {rpki_class!r}")
    return matching


def get_workload(name: str) -> WorkloadSpec:
    """Look a workload up by full name or Table IV abbreviation."""
    spec = _BY_NAME.get(name) or _BY_ABBR.get(name)
    if spec is None:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown workload {name!r}; known: {known}")
    return spec


def is_registry_spec(spec: WorkloadSpec) -> bool:
    """True when ``spec`` is exactly the registry entry of its name.

    Only registry specs have a stable content identity (a custom spec may
    close over arbitrary knobs), so only they get persistent cache keys.
    """
    return _BY_NAME.get(spec.name) is spec


__all__ = [
    "WorkloadSpec",
    "all_workloads",
    "all_collectives",
    "workloads_in_class",
    "get_workload",
    "is_registry_spec",
]
