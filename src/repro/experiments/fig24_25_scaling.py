"""Figures 24 and 25: scaling to 8- and 16-GPU systems.

Private, Cached, and Ours (Dynamic + Batching) at OTP 4x — 64 OTP buffers
per GPU at 8 GPUs, 128 at 16 GPUs, exactly the paper's §V-D provisioning —
normalized to the unsecure system of the same size.

Paper anchors: Ours improves 17.1 % / 9.2 % (8 GPUs) and 17.5 % / 13.2 %
(16 GPUs) over Private / Cached; the improvement *grows* with GPU count.
Our simulator reproduces the growth of both gaps; absolute overheads stay
roughly flat instead of growing (see EXPERIMENTS.md for the deviation
note).
"""

from __future__ import annotations

from repro.configs import default_config, scheme_config
from repro.experiments.common import ExperimentRunner, Grid


def run(n_gpus: int, runner: ExperimentRunner | None = None) -> Grid:
    runner = runner or ExperimentRunner(n_gpus=n_gpus)
    if runner.n_gpus != n_gpus:
        raise ValueError("runner's GPU count must match the experiment's")
    return runner.sweep(
        {
            "private": scheme_config("private", n_gpus=n_gpus),
            "cached": scheme_config("cached", n_gpus=n_gpus),
            "ours": default_config(n_gpus, scheme="dynamic", batching=True),
        }
    )


def format_result(grid: Grid) -> str:
    fig = {8: 24, 16: 25}.get(grid.n_gpus, "24/25")
    table = grid.table(
        f"Figure {fig}: execution time, {grid.n_gpus} GPUs (normalized to unsecure)",
        ["workload", "Private", "Cached", "Ours"],
    )
    summary = (
        f"Ours improves {grid.improvement_over('ours', 'private'):+.1%} over Private, "
        f"{grid.improvement_over('ours', 'cached'):+.1%} over Cached"
    )
    return f"{table}\n{summary}"


__all__ = ["run", "format_result"]
