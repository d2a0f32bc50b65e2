"""Figures 10 and 22: OTP latency-hiding distribution.

For each scheme, the fraction of pad acquisitions that were fully hidden
(OTP_Hit), partially hidden (OTP_Partial), or not hidden (OTP_Miss), split
by direction — Fig. 10 compares the prior schemes, Fig. 22 adds "Ours"
(Dynamic + Batching).

Paper anchors (hidden = hit + partial): Private hides 36.9 % send /
72.7 % recv; Cached 75.9 % / 79.0 %; Ours lifts the *full-hit* fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.configs import scheme_config
from repro.experiments.common import ExperimentRunner, format_table
from repro.system import OtpDistribution


@dataclass
class OtpDistributionResult:
    n_gpus: int
    schemes: tuple[str, ...]
    # scheme -> direction ("send"/"recv") -> aggregated OtpDistribution
    distributions: dict[str, dict[str, OtpDistribution]] = field(default_factory=dict)


def run(
    runner: ExperimentRunner | None = None,
    schemes: tuple[str, ...] = ("private", "shared", "cached", "dynamic", "batching"),
) -> OtpDistributionResult:
    runner = runner or ExperimentRunner()
    configs = {s: scheme_config(s, n_gpus=runner.n_gpus) for s in schemes}
    sums: dict[str, dict[str, list[float]]] = {
        s: {"send": [0.0, 0.0, 0.0], "recv": [0.0, 0.0, 0.0]} for s in schemes
    }
    grid = runner.sweep(configs)
    for wl in grid.rows:
        for s in schemes:
            report = wl.by_config[s]
            for direction, dist in (("send", report.otp_send), ("recv", report.otp_recv)):
                sums[s][direction][0] += dist.hit
                sums[s][direction][1] += dist.partial
                sums[s][direction][2] += dist.miss
    n = len(grid.rows)
    out = OtpDistributionResult(n_gpus=runner.n_gpus, schemes=schemes)
    for s in schemes:
        out.distributions[s] = {
            d: OtpDistribution(hit=v[0] / n, partial=v[1] / n, miss=v[2] / n)
            for d, v in sums[s].items()
        }
    return out


def format_result(result: OtpDistributionResult) -> str:
    rows = []
    for scheme in result.schemes:
        for direction in ("send", "recv"):
            dist = result.distributions[scheme][direction]
            rows.append(
                [
                    scheme,
                    direction,
                    f"{dist.hit:.1%}",
                    f"{dist.partial:.1%}",
                    f"{dist.miss:.1%}",
                    f"{dist.hidden:.1%}",
                ]
            )
    table = format_table(
        f"Figures 10/22: OTP latency distribution ({result.n_gpus} GPUs, OTP 4x, "
        "workload average)",
        ["scheme", "dir", "OTP_Hit", "OTP_Partial", "OTP_Miss", "hidden"],
        rows,
    )
    from repro.experiments.ascii_chart import stacked_bar

    chart = stacked_bar(
        "send-direction decomposition",
        [
            (s, {"hit": d["send"].hit, "partial": d["send"].partial, "miss": d["send"].miss})
            for s, d in result.distributions.items()
        ],
        symbols={"hit": "#", "partial": "+", "miss": "."},
    )
    return f"{table}\n\n{chart}"


__all__ = ["run", "format_result", "OtpDistributionResult"]
