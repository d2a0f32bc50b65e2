"""Conformance-harness value types: cells, violations, repro artifacts.

A :class:`CellRef` names one sweep cell — ``(workload, scheme, n_gpus,
seed, scale, variant)`` — in a JSON-round-trippable form, so a failing
configuration can be written to disk and replayed byte-identically later
(``repro-sim verify --replay``).  A :class:`Violation` records one broken
law: which oracle flagged it, the law it checked, the cells involved, and
the observed/expected values.  A :class:`ReproArtifact` is the minimized,
replayable JSON the shrinker emits on failure.

The laws themselves live in :mod:`repro.verify.analytic`,
:mod:`repro.verify.differential`, and :mod:`repro.verify.metamorphic`;
see ``docs/VERIFICATION.md`` for the full catalogue with paper formula
references.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.configs import SystemConfig, scheme_config
from repro.runner import SweepJob
from repro.workloads import get_workload

ARTIFACT_SCHEMA = 1

#: cell variants: a dormant section carries non-rate field overrides that
#: must not change a single byte of the result (metamorphic oracle D)
VARIANTS = ("plain", "dormant_fault", "dormant_adversary")


@dataclass(frozen=True)
class CellRef:
    """One sweep cell, addressable and JSON-serializable."""

    workload: str
    scheme: str
    n_gpus: int = 4
    seed: int = 1
    scale: float = 0.5
    variant: str = "plain"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown cell variant {self.variant!r}")

    def config(self) -> SystemConfig:
        """The cell's full configuration tree."""
        cfg = scheme_config(self.scheme, n_gpus=self.n_gpus)
        if self.variant == "dormant_fault":
            # Non-rate overrides only: all injection rates stay zero, so
            # the section is dormant and must be behaviorally invisible.
            cfg = cfg.with_fault(ack_timeout=cfg.fault.ack_timeout + 37, max_retries=9)
        elif self.variant == "dormant_adversary":
            cfg = cfg.with_adversary(replay_window=13)
        return cfg

    def job(self) -> SweepJob:
        return SweepJob(
            spec=get_workload(self.workload),
            config=self.config(),
            seed=self.seed,
            scale=self.scale,
        )

    def describe(self) -> str:
        tag = "" if self.variant == "plain" else f"+{self.variant}"
        return (
            f"{self.workload}/{self.scheme}{tag}"
            f"/{self.n_gpus}gpus/seed{self.seed}/scale{self.scale}"
        )

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "scheme": self.scheme,
            "n_gpus": self.n_gpus,
            "seed": self.seed,
            "scale": self.scale,
            "variant": self.variant,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CellRef":
        return cls(
            workload=data["workload"],
            scheme=data["scheme"],
            n_gpus=int(data["n_gpus"]),
            seed=int(data["seed"]),
            scale=float(data["scale"]),
            variant=data.get("variant", "plain"),
        )


@dataclass
class Violation:
    """One broken law, with enough context to shrink and replay it."""

    oracle: str  # "family.check", e.g. "analytic.metadata_bytes"
    law: str  # the one-line law statement that failed
    cells: list[CellRef]
    message: str
    observed: object = None
    expected: object = None
    #: oracle-specific replay context (e.g. the relabeling permutation)
    data: dict = field(default_factory=dict)

    def describe(self) -> str:
        lines = [f"[{self.oracle}] {self.law}", f"  {self.message}"]
        if self.observed is not None or self.expected is not None:
            lines.append(f"  observed={self.observed!r} expected={self.expected!r}")
        for cell in self.cells:
            lines.append(f"  cell: {cell.describe()}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "oracle": self.oracle,
            "law": self.law,
            "cells": [c.to_dict() for c in self.cells],
            "message": self.message,
            "observed": self.observed,
            "expected": self.expected,
            "data": self.data,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Violation":
        return cls(
            oracle=data["oracle"],
            law=data["law"],
            cells=[CellRef.from_dict(c) for c in data["cells"]],
            message=data["message"],
            observed=data.get("observed"),
            expected=data.get("expected"),
            data=data.get("data", {}),
        )


@dataclass
class ReproArtifact:
    """The shrinker's output: a minimal failing repro, replayable by path."""

    violation: Violation
    #: the minimized failing cell set (<= the violation's original cells)
    cells: list[CellRef]
    #: scale ladder / cell-set reduction steps the shrinker took
    shrink_log: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema": ARTIFACT_SCHEMA,
            "violation": self.violation.to_dict(),
            "cells": [c.to_dict() for c in self.cells],
            "shrink_log": self.shrink_log,
        }

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ReproArtifact":
        data = json.loads(Path(path).read_text())
        if data.get("schema") != ARTIFACT_SCHEMA:
            raise ValueError(f"artifact schema {data.get('schema')} != {ARTIFACT_SCHEMA}")
        return cls(
            violation=Violation.from_dict(data["violation"]),
            cells=[CellRef.from_dict(c) for c in data["cells"]],
            shrink_log=data.get("shrink_log", []),
        )


def metric_value(report, name: str, default: int | float | None = 0):
    """Read one counter/gauge value from a report's metrics snapshot."""
    entry = report.metrics.get(name)
    if entry is None:
        return default
    return entry.get("value", default)


def ratio_total(report, name: str) -> int:
    """Total event count behind one ratio metric (e.g. ``otp.send``)."""
    entry = report.metrics.get(name)
    if entry is None:
        return 0
    return sum(entry.get("counts", {}).values())


__all__ = [
    "ARTIFACT_SCHEMA",
    "VARIANTS",
    "CellRef",
    "Violation",
    "ReproArtifact",
    "metric_value",
    "ratio_total",
]
