"""Full evaluation report: regenerate every paper table/figure in one go.

``generate_all`` runs the complete experiment suite — sharing one
:class:`ExperimentRunner` per system size so baselines and overlapping
configurations are simulated once — and writes each table to
``out_dir/<name>.txt`` plus a combined ``report.txt``.

Each section is timed with ``perf_counter``, and the resulting
wall-clock profile lands in ``out_dir/PROFILE.json`` — the cheapest way
to see which figure dominates a full regeneration (see
``docs/OBSERVABILITY.md``).

Used by ``repro-sim experiment`` and by the EXPERIMENTS.md record.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.experiments import (
    fig08_otp_sensitivity,
    fig09_prior_schemes,
    fig10_otp_distribution,
    fig11_overhead_breakdown,
    fig12_traffic,
    fig13_14_timelines,
    fig15_16_burstiness,
    fig21_main_result,
    fig24_25_scaling,
    fig26_aes_latency,
    fig_collectives,
    hw_overhead,
    table1_storage,
)
from repro.experiments.common import ExperimentRunner


def generate_all(
    out_dir: str | Path,
    scale: float = 0.5,
    seed: int = 1,
    include_scaling: bool = True,
    verbose: bool = True,
    workloads: list | None = None,
    jobs: int | None = None,
    cache_dir: str | None = None,
    use_cache: bool | None = None,
) -> dict[str, str]:
    """Run everything; returns {experiment name: formatted table}.

    ``workloads`` restricts the sweep (default: all 17 of Table IV).
    ``jobs``/``cache_dir``/``use_cache`` configure the sweep execution
    layer (see :class:`ExperimentRunner`) for every runner built here.
    """
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    exec_kwargs = {"jobs": jobs, "cache_dir": cache_dir, "use_cache": use_cache}
    runner4 = ExperimentRunner(
        n_gpus=4, seed=seed, scale=scale, workloads=workloads, **exec_kwargs
    )
    sections: dict[str, str] = {}
    # wall-clock seconds per section, in PROFILE.json's phase-table shape
    phases: dict[str, dict] = {}

    def record(name: str, make) -> None:
        started = time.perf_counter()
        text = make()
        seconds = time.perf_counter() - started
        phases[f"experiment.{name}"] = {"calls": 1, "seconds": seconds}
        sections[name] = text
        (out_path / f"{name}.txt").write_text(text + "\n")
        if verbose:
            print(f"[{time.strftime('%H:%M:%S')}] {name} done ({seconds:.1f}s)", flush=True)

    record("table1_storage", lambda: table1_storage.format_result(table1_storage.run()))
    record(
        "hw_overhead",
        lambda: hw_overhead.format_result([hw_overhead.compute(4, m) for m in (1, 4, 16)]),
    )
    record(
        "fig15_16_burstiness",
        lambda: "\n\n".join(
            fig15_16_burstiness.format_result(fig15_16_burstiness.run(runner4), g)
            for g in (16, 32)
        ),
    )
    record("fig13_14_timelines", lambda: fig13_14_timelines.format_result(fig13_14_timelines.run(runner4)))
    record("fig08_otp_sensitivity", lambda: fig08_otp_sensitivity.format_result(fig08_otp_sensitivity.run(runner4)))
    record("fig09_prior_schemes", lambda: fig09_prior_schemes.format_result(fig09_prior_schemes.run(runner4)))
    record("fig11_overhead_breakdown", lambda: fig11_overhead_breakdown.format_result(fig11_overhead_breakdown.run(runner4)))
    record("fig21_main_result", lambda: fig21_main_result.format_result(fig21_main_result.run(runner4)))
    record("fig10_22_otp_distribution", lambda: fig10_otp_distribution.format_result(fig10_otp_distribution.run(runner4)))
    record("fig12_23_traffic", lambda: fig12_traffic.format_result(fig12_traffic.run(runner4)))
    record("fig26_aes_latency", lambda: fig26_aes_latency.format_result(fig26_aes_latency.run(runner4)))
    if workloads is None:
        # The collectives sweep has its own workload set (the `collective`
        # registry class), so a restricted Table IV list skips it.
        record(
            "fig_collectives",
            lambda: fig_collectives.format_result(fig_collectives.run(runner4)),
        )

    if include_scaling:
        for n in (8, 16):
            runner = ExperimentRunner(
                n_gpus=n, seed=seed, scale=scale, workloads=workloads, **exec_kwargs
            )
            record(
                f"fig{24 if n == 8 else 25}_scaling_{n}gpus",
                lambda n=n, runner=runner: fig24_25_scaling.format_result(
                    fig24_25_scaling.run(n, runner)
                ),
            )

    combined = "\n\n\n".join(sections[k] for k in sections)
    (out_path / "report.txt").write_text(combined + "\n")
    (out_path / "PROFILE.json").write_text(
        json.dumps({"phases": phases}, indent=2, sort_keys=True) + "\n"
    )
    return sections


__all__ = ["generate_all"]
