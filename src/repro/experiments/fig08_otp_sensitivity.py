"""Figure 8: Private-scheme sensitivity to the OTP buffer multiplier.

Sweeps OTP 1x → 16x in a 4-GPU system and reports per-workload and average
slowdowns vs the unsecure baseline.  The paper's anchors: OTP 1x degrades
121.1 % on average; 16x degrades 14.0 %.
"""

from __future__ import annotations

from repro.configs import scheme_config
from repro.experiments.common import ExperimentRunner, Grid

MULTIPLIERS = (1, 2, 4, 8, 16)


def run(
    runner: ExperimentRunner | None = None,
    multipliers: tuple[int, ...] = MULTIPLIERS,
) -> Grid:
    """Private at each OTP multiplier, keyed by the multiplier."""
    runner = runner or ExperimentRunner()
    return runner.sweep(
        {
            m: scheme_config("private", n_gpus=runner.n_gpus, otp_multiplier=m)
            for m in multipliers
        }
    )


def format_result(grid: Grid) -> str:
    return grid.table(
        f"Figure 8: Private slowdown vs OTP entries ({grid.n_gpus} GPUs, "
        "normalized to unsecure)",
        ["workload", *[f"OTP {m}x" for m in grid.keys]],
    )


__all__ = ["run", "format_result", "MULTIPLIERS"]
