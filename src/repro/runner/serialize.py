"""Lossless JSON serialization of :class:`~repro.system.SimulationReport`.

The persistent result cache and the process-pool sweep workers both move
reports across a JSON boundary, so the round trip must be exact: every
metric a figure reads has to come back bit-identical.  That holds because
every field is an int, a float (JSON floats round-trip exactly through
``repr``), a string, or a container of those — the only non-trivial part is
restoring the integer keys JSON stringifies (GPU node ids, interval
buckets).
"""

from __future__ import annotations

from typing import Any

from repro.secure.adversary import AttackReport
from repro.sim.stats import FaultStats, IntervalSeries
from repro.system import OtpDistribution, SimulationReport

#: Bump when the report layout changes; stale cache entries stop matching.
#: v2: reports carry the uniform-namespace metrics snapshot (``metrics``).
REPORT_SCHEMA = 2


def series_to_dict(series: IntervalSeries) -> dict[str, Any]:
    return {
        "name": series.name,
        "interval": series.interval,
        "channels": {
            chan: {str(bucket): amount for bucket, amount in buckets.items()}
            for chan, buckets in series._channels.items()
        },
    }


def series_from_dict(data: dict[str, Any]) -> IntervalSeries:
    series = IntervalSeries(data["name"], data["interval"])
    series._channels = {
        chan: {int(bucket): amount for bucket, amount in buckets.items()}
        for chan, buckets in data["channels"].items()
    }
    return series


def _otp_to_dict(otp: OtpDistribution) -> dict[str, float]:
    return {"hit": otp.hit, "partial": otp.partial, "miss": otp.miss}


def report_to_dict(report: SimulationReport) -> dict[str, Any]:
    out = {
        "schema": REPORT_SCHEMA,
        "workload": report.workload,
        "scheme": report.scheme,
        "n_gpus": report.n_gpus,
        "execution_cycles": report.execution_cycles,
        "traffic_bytes": report.traffic_bytes,
        "base_traffic_bytes": report.base_traffic_bytes,
        "meta_traffic_bytes": report.meta_traffic_bytes,
        "remote_requests": report.remote_requests,
        "migrations": report.migrations,
        "otp_send": _otp_to_dict(report.otp_send),
        "otp_recv": _otp_to_dict(report.otp_recv),
        "rpki": report.rpki,
        "acks_sent": report.acks_sent,
        "batch_macs_sent": report.batch_macs_sent,
        "per_gpu_finish": {str(node): cycle for node, cycle in report.per_gpu_finish.items()},
        "burst16_fractions": list(report.burst16_fractions),
        "burst32_fractions": list(report.burst32_fractions),
        "timelines": {str(node): series_to_dict(s) for node, s in report.timelines.items()},
        "events_processed": report.events_processed,
        # Already JSON-safe by construction (MetricsRegistry.snapshot), so
        # the cache and the pool boundary round-trip it bit-identically.
        "metrics": report.metrics,
    }
    # Optional keys, present only under fault injection / an active
    # adversary: clean reports stay byte-identical to the earlier layouts
    # (and to schema 1 readers).
    if report.fault_stats is not None:
        out["fault_stats"] = report.fault_stats.as_dict()
    if report.attack_report is not None:
        out["attack_report"] = report.attack_report.as_dict()
    return out


def report_from_dict(data: dict[str, Any]) -> SimulationReport:
    if data.get("schema") != REPORT_SCHEMA:
        raise ValueError(f"unsupported report schema {data.get('schema')!r}")
    return SimulationReport(
        workload=data["workload"],
        scheme=data["scheme"],
        n_gpus=data["n_gpus"],
        execution_cycles=data["execution_cycles"],
        traffic_bytes=data["traffic_bytes"],
        base_traffic_bytes=data["base_traffic_bytes"],
        meta_traffic_bytes=data["meta_traffic_bytes"],
        remote_requests=data["remote_requests"],
        migrations=data["migrations"],
        otp_send=OtpDistribution(**data["otp_send"]),
        otp_recv=OtpDistribution(**data["otp_recv"]),
        rpki=data["rpki"],
        acks_sent=data["acks_sent"],
        batch_macs_sent=data["batch_macs_sent"],
        per_gpu_finish={int(node): cycle for node, cycle in data["per_gpu_finish"].items()},
        burst16_fractions=list(data["burst16_fractions"]),
        burst32_fractions=list(data["burst32_fractions"]),
        timelines={int(node): series_from_dict(s) for node, s in data["timelines"].items()},
        events_processed=data["events_processed"],
        fault_stats=FaultStats(**data["fault_stats"]) if "fault_stats" in data else None,
        attack_report=(
            AttackReport.from_dict(data["attack_report"]) if "attack_report" in data else None
        ),
        metrics=data["metrics"],
    )


__all__ = ["REPORT_SCHEMA", "report_to_dict", "report_from_dict", "series_to_dict", "series_from_dict"]
