"""Figure 26: sensitivity to the AES-GCM engine latency.

Sweeps the pad-generation latency from 10 to 40 cycles for Private,
Cached, and Ours.  The paper's finding: shrinking the engine latency moves
the overheads only a few points (Private 19.5 → 17.3 %, Cached 16.3 →
13.6 %, Ours 7.9 → 5.6 %) because the metadata bandwidth cost persists —
the motivation for attacking traffic, not just latency.
"""

from __future__ import annotations

from repro.configs import default_config
from repro.experiments.common import ExperimentRunner, Grid, fmt, format_table

LATENCIES = (10, 20, 30, 40)
SCHEME_KEYS = ("private", "cached", "ours")


def _config(scheme_key: str, n_gpus: int, latency: int):
    if scheme_key == "ours":
        return default_config(n_gpus, scheme="dynamic", batching=True, aes_gcm_latency=latency)
    return default_config(n_gpus, scheme=scheme_key, aes_gcm_latency=latency)


def run(
    runner: ExperimentRunner | None = None,
    latencies: tuple[int, ...] = LATENCIES,
) -> Grid:
    """Every scheme at every latency, keyed ``(scheme, latency)``."""
    runner = runner or ExperimentRunner()
    return runner.sweep(
        {
            (scheme, lat): _config(scheme, runner.n_gpus, lat)
            for scheme in SCHEME_KEYS
            for lat in latencies
        }
    )


def format_result(grid: Grid) -> str:
    latencies = grid.axis(1)
    rows = [
        [scheme, *[fmt(grid.average((scheme, lat))) for lat in latencies]]
        for scheme in grid.axis(0)
    ]
    return format_table(
        f"Figure 26: average slowdown vs AES-GCM latency ({grid.n_gpus} GPUs, OTP 4x)",
        ["scheme", *[f"{lat} cyc" for lat in latencies]],
        rows,
    )


__all__ = ["run", "format_result", "LATENCIES", "SCHEME_KEYS"]
