"""Metrics export, import, diff, and schema validation.

A metrics snapshot (the dict produced by
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`, as stored on
``SimulationReport.metrics``) goes to disk as **JSONL**: one
``{"name": ..., "type": ..., ...}`` object per line, sorted by metric
name, ``sort_keys`` within each line.  Streamable and greppable; what
``repro-sim run --metrics`` writes and the CI smoke job validates.

The rendering is a byte-deterministic function of the snapshot dict, so a
cache-hit replay of a sweep cell exports the identical file a live run
would have — the determinism contract the sweep tests pin down.

:func:`validate_metrics` is the drift lint: every name must parse, sit in
a known namespace, and carry a payload whose shape matches its declared
type.  ``repro-sim metrics check`` (the CI entry point) fails on the first
file with any violation.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.metrics import KNOWN_NAMESPACES, METRIC_TYPES, _NAME_RE


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------
def metrics_to_jsonl(metrics: dict[str, dict]) -> str:
    """Render a snapshot as deterministic JSON-lines text."""
    lines = [
        json.dumps({"name": name, **metrics[name]}, sort_keys=True)
        for name in sorted(metrics)
    ]
    return "".join(line + "\n" for line in lines)


def write_metrics_jsonl(metrics: dict[str, dict], path: str | Path) -> int:
    """Write the JSONL rendering; returns the metric count."""
    Path(path).write_text(metrics_to_jsonl(metrics))
    return len(metrics)


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------
def read_metrics(path: str | Path) -> dict[str, dict]:
    """Load a JSONL export back into a snapshot dict."""
    path = Path(path)
    metrics: dict[str, dict] = {}
    for line_no, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
            name = entry.pop("name")
        except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"{path}:{line_no}: malformed metrics line") from exc
        metrics[name] = entry
    return metrics


# ---------------------------------------------------------------------------
# Validation (the namespace-drift lint)
# ---------------------------------------------------------------------------
def _payload_errors(name: str, payload: dict) -> list[str]:
    kind = payload.get("type")
    if kind not in METRIC_TYPES:
        return [f"{name}: unknown metric type {kind!r}"]
    errors = []
    if kind in ("counter", "gauge"):
        if not isinstance(payload.get("value"), (int, float)) or isinstance(
            payload.get("value"), bool
        ):
            errors.append(f"{name}: {kind} value must be a number")
    elif kind == "histogram":
        edges, counts = payload.get("edges"), payload.get("counts")
        if not isinstance(edges, list) or not isinstance(counts, list):
            errors.append(f"{name}: histogram needs list edges and counts")
        elif len(counts) != len(edges) + 1:
            errors.append(f"{name}: histogram needs len(edges)+1 counts")
        elif payload.get("total") != sum(counts):
            errors.append(f"{name}: histogram total does not equal the count sum")
    elif kind == "ratio":
        counts = payload.get("counts")
        if not isinstance(counts, dict) or not all(
            isinstance(k, str) and isinstance(v, int) and not isinstance(v, bool)
            for k, v in counts.items()
        ):
            errors.append(f"{name}: ratio counts must map category -> int")
    return errors


def validate_metrics(metrics: dict[str, dict]) -> list[str]:
    """Return every schema/namespace violation (empty list = clean)."""
    errors: list[str] = []
    for name, payload in metrics.items():
        if not isinstance(name, str) or not _NAME_RE.match(name):
            errors.append(f"{name!r}: malformed metric name")
            continue
        namespace = name.split(".", 1)[0]
        if namespace not in KNOWN_NAMESPACES:
            errors.append(f"{name}: unknown namespace {namespace!r}")
            continue
        if not isinstance(payload, dict):
            errors.append(f"{name}: payload must be an object")
            continue
        errors.extend(_payload_errors(name, payload))
    return errors


def validate_metrics_file(path: str | Path) -> list[str]:
    """Read and validate one export; parse failures are returned, not raised."""
    try:
        metrics = read_metrics(path)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    return validate_metrics(metrics)


# ---------------------------------------------------------------------------
# Diff
# ---------------------------------------------------------------------------
def diff_metrics(a: dict[str, dict], b: dict[str, dict]) -> list[str]:
    """Human-readable differences between two snapshots (empty = identical)."""
    differences: list[str] = []
    for name in sorted(set(a) | set(b)):
        if name not in a:
            differences.append(f"+ {name}: only in second")
        elif name not in b:
            differences.append(f"- {name}: only in first")
        elif a[name] != b[name]:
            differences.append(f"~ {name}: {_summarize(a[name])} -> {_summarize(b[name])}")
    return differences


def _summarize(payload: dict) -> str:
    kind = payload.get("type")
    if kind in ("counter", "gauge"):
        return str(payload.get("value"))
    if kind == "histogram":
        return f"hist(total={payload.get('total')}, counts={payload.get('counts')})"
    if kind == "ratio":
        return f"ratio({payload.get('counts')})"
    return repr(payload)


__all__ = [
    "diff_metrics",
    "metrics_to_jsonl",
    "read_metrics",
    "validate_metrics",
    "validate_metrics_file",
    "write_metrics_jsonl",
]
