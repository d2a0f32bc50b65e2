"""Figure 21: the headline 4-GPU comparison.

Private (OTP 4x), Private (OTP 16x), Cached (OTP 4x), Dynamic (OTP 4x),
and Dynamic+Batching (OTP 4x), all normalized to the unsecure system.

Paper anchors (average overheads): Private 4x 19.5 %, Private 16x 14.0 %,
Cached 16.3 %, Dynamic 14.7 %, Batching 7.9 %.  The shapes that must hold:
Batching < Dynamic < Private 4x, Batching < Private 16x (more buffers
cannot fix the metadata bandwidth), and the worst workloads are the
high-RPKI communication-bound ones.
"""

from __future__ import annotations

from repro.configs import default_config, scheme_config
from repro.experiments.ascii_chart import hbar_chart
from repro.experiments.common import ExperimentRunner, Grid


def build_configs(n_gpus: int) -> dict:
    return {
        "private_4x": scheme_config("private", n_gpus=n_gpus, otp_multiplier=4),
        "private_16x": scheme_config("private", n_gpus=n_gpus, otp_multiplier=16),
        "cached_4x": scheme_config("cached", n_gpus=n_gpus, otp_multiplier=4),
        "dynamic_4x": scheme_config("dynamic", n_gpus=n_gpus, otp_multiplier=4),
        "batching_4x": default_config(n_gpus, scheme="dynamic", batching=True),
    }


def run(runner: ExperimentRunner | None = None) -> Grid:
    runner = runner or ExperimentRunner()
    return runner.sweep(build_configs(runner.n_gpus))


def format_result(grid: Grid) -> str:
    summary = (
        f"Batching improves {grid.improvement_over('batching_4x', 'private_4x'):+.1%} "
        f"over Private 4x, {grid.improvement_over('batching_4x', 'cached_4x'):+.1%} "
        "over Cached 4x"
    )
    table = grid.table(
        f"Figure 21: execution time, {grid.n_gpus} GPUs (normalized to unsecure)",
        ["workload", "Priv 4x", "Priv 16x", "Cached 4x", "+Dynamic", "+Batching"],
    )
    chart = hbar_chart(
        "average normalized execution time",
        [(k, grid.average(k)) for k in grid.keys],
        baseline=1.0,
    )
    return f"{table}\n{summary}\n\n{chart}"


__all__ = ["run", "format_result", "build_configs"]
