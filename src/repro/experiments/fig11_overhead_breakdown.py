"""Figure 11: cumulative overhead breakdown under Private (OTP 4x).

Two configurations isolate the paper's two cost sources:

* **+SecureCommu** — authenticated encryption latencies apply but security
  metadata occupies no link bandwidth (``count_metadata=False``);
* **+Traffic**    — the full protocol including metadata bytes and ACKs.

Paper anchors: +SecureCommu averages 8.2 % overhead; +Traffic lifts it to
19.5 % (an 11.3-point bandwidth contribution).
"""

from __future__ import annotations

from repro.configs import default_config
from repro.experiments.common import ExperimentRunner, Grid


def run(runner: ExperimentRunner | None = None) -> Grid:
    runner = runner or ExperimentRunner()
    return runner.sweep(
        {
            "secure_commu": default_config(runner.n_gpus, scheme="private", count_metadata=False),
            "traffic": default_config(runner.n_gpus, scheme="private", count_metadata=True),
        }
    )


def format_result(grid: Grid) -> str:
    return grid.table(
        f"Figure 11: cumulative overheads, Private OTP 4x ({grid.n_gpus} GPUs)",
        ["workload", "+SecureCommu", "+Traffic"],
    )


__all__ = ["run", "format_result"]
