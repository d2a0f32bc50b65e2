"""Figures 15 and 16: burstiness of inter-processor data transfers.

For every directed processor pair, the time for 16 (Fig. 15) and 32
(Fig. 16) data blocks to accumulate, bucketed into the paper's histogram
bins [0,40) [40,160) [160,640) [640,2560) [2560,inf).

Paper anchors: 16 blocks accumulate within 160 cycles 69.2 % of the time
on average; 32 blocks within 160 cycles 44.2 % of the time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import ExperimentRunner, format_table
from repro.secure.channel import BURST_EDGES


@dataclass
class BurstinessResult:
    n_gpus: int
    edges: list[int]
    # workload -> [fractions per bin] for each group size
    burst16: dict[str, list[float]] = field(default_factory=dict)
    burst32: dict[str, list[float]] = field(default_factory=dict)

    def _within(self, table: dict[str, list[float]], n_bins: int) -> float:
        """Average fraction accumulated within the first ``n_bins`` bins."""
        vals = [sum(frac[:n_bins]) for frac in table.values() if sum(frac) > 0]
        return sum(vals) / len(vals) if vals else 0.0

    def fraction_within_160(self, group: int) -> float:
        table = self.burst16 if group == 16 else self.burst32
        return self._within(table, 2)  # bins [0,40) + [40,160)


def run(runner: ExperimentRunner | None = None) -> BurstinessResult:
    runner = runner or ExperimentRunner()
    result = BurstinessResult(n_gpus=runner.n_gpus, edges=list(BURST_EDGES))
    for row in runner.sweep({}).rows:
        result.burst16[row.spec.abbr] = row.baseline.burst16_fractions
        result.burst32[row.spec.abbr] = row.baseline.burst32_fractions
    return result


def _bin_labels(edges: list[int]) -> list[str]:
    labels = [f"[0,{edges[0]})"]
    labels += [f"[{a},{b})" for a, b in zip(edges, edges[1:])]
    labels.append(f"[{edges[-1]},inf)")
    return labels


def format_result(result: BurstinessResult, group: int = 16) -> str:
    table = result.burst16 if group == 16 else result.burst32
    labels = _bin_labels(result.edges)
    rows = [
        [abbr, *[f"{v:.1%}" for v in fracs]]
        for abbr, fracs in table.items()
    ]
    rows.append(
        [
            "avg<160cyc",
            f"{result.fraction_within_160(group):.1%}",
            *[""] * (len(labels) - 1),
        ]
    )
    fig = 15 if group == 16 else 16
    return format_table(
        f"Figure {fig}: cycles for {group} data blocks to accumulate "
        f"({result.n_gpus} GPUs, unsecure)",
        ["workload", *labels],
        rows,
    )


__all__ = ["run", "format_result", "BurstinessResult"]
