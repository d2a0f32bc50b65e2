"""Unified observability layer: metrics registry and exports.

See ``docs/OBSERVABILITY.md`` for the metric namespace table, the export
formats, and the determinism contract (serial / parallel / cache-hit
replays of a sweep cell export byte-identical metrics files).
"""

from repro.obs.export import (
    diff_metrics,
    metrics_to_jsonl,
    read_metrics,
    validate_metrics,
    validate_metrics_file,
    write_metrics_jsonl,
)
from repro.obs.metrics import (
    KNOWN_NAMESPACES,
    METRIC_TYPES,
    MetricsRegistry,
    encode_metric,
    validate_name,
)

__all__ = [
    "KNOWN_NAMESPACES",
    "METRIC_TYPES",
    "MetricsRegistry",
    "diff_metrics",
    "encode_metric",
    "metrics_to_jsonl",
    "read_metrics",
    "validate_metrics",
    "validate_metrics_file",
    "validate_name",
    "write_metrics_jsonl",
]
