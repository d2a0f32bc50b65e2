"""Figure 9: execution time of the prior OTP management schemes.

Private / Shared / Cached at OTP 4x in a 4-GPU system, normalized to the
unsecure baseline.  Paper anchors: 19.5 % / 166.3 % / 16.3 % average
degradation, with Private and Cached clearly ahead of Shared.
"""

from __future__ import annotations

from repro.configs import scheme_config
from repro.experiments.common import ExperimentRunner, Grid

SCHEMES = ("private", "shared", "cached")


def run(runner: ExperimentRunner | None = None) -> Grid:
    runner = runner or ExperimentRunner()
    return runner.sweep({s: scheme_config(s, n_gpus=runner.n_gpus) for s in SCHEMES})


def format_result(grid: Grid) -> str:
    return grid.table(
        f"Figure 9: prior schemes, OTP 4x ({grid.n_gpus} GPUs, normalized to unsecure)",
        ["workload", *SCHEMES],
    )


__all__ = ["run", "format_result", "SCHEMES"]
