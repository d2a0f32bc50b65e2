"""Machine-checkable validation of the paper's claims.

Each :class:`Claim` binds a quotable statement from the paper to a
predicate over simulation results.  :func:`check_paper_claims` evaluates
the whole list on a shared :class:`~repro.experiments.common.ExperimentRunner`
and returns structured verdicts — the executable core of EXPERIMENTS.md.

Claims are *shape* claims (orderings, directions, rough factors), not
absolute-number claims: the substrate is a different simulator than the
paper's (see DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.configs import default_config, scheme_config
from repro.experiments.common import ExperimentRunner, geometric_mean


@dataclass(frozen=True)
class Claim:
    """One falsifiable statement from the paper."""

    claim_id: str
    source: str  # paper section/figure
    statement: str
    check: Callable[[dict], bool]
    detail: Callable[[dict], str]


@dataclass(frozen=True)
class Verdict:
    claim: Claim
    passed: bool
    detail: str


def _measurements(runner: ExperimentRunner) -> dict:
    """Run the configurations the claims inspect and aggregate averages."""
    n = runner.n_gpus
    configs = {
        "private_4x": scheme_config("private", n_gpus=n, otp_multiplier=4),
        "private_16x": scheme_config("private", n_gpus=n, otp_multiplier=16),
        "shared": scheme_config("shared", n_gpus=n),
        "cached": scheme_config("cached", n_gpus=n),
        "dynamic": scheme_config("dynamic", n_gpus=n),
        "batching": default_config(n, scheme="dynamic", batching=True),
        "secure_commu": default_config(n, scheme="private", count_metadata=False),
    }
    grid = runner.sweep(configs)
    out: dict = {"n_workloads": len(grid.rows)}
    for key in configs:
        out[f"slowdown:{key}"] = grid.average(key)
        out[f"traffic:{key}"] = grid.average_traffic(key)
    # burstiness from the unsecure baselines
    within160 = []
    for wl in grid.rows:
        fracs = wl.baseline.burst16_fractions
        if fracs and sum(fracs) > 0:
            within160.append(fracs[0] + fracs[1])
    out["burst16_within_160"] = sum(within160) / len(within160) if within160 else 0.0
    # OTP hiding for private
    out["private_send_hidden"] = geometric_mean(
        [max(wl.by_config["private_4x"].otp_send.hidden, 1e-6) for wl in grid.rows]
    )
    # full-hit fractions (Fig 22's emphasized metric), arithmetic mean since
    # zero hits are legitimate for idle directions
    for key in ("private_4x", "batching"):
        hits = [wl.by_config[key].otp_send.hit for wl in grid.rows]
        out[f"send_hit:{key}"] = sum(hits) / len(hits)
    return out


def paper_claims() -> list[Claim]:
    return [
        Claim(
            "shared-worst",
            "Fig. 9",
            "Shared degrades performance far more than Private and Cached "
            "(paper: 166.3% vs 19.5%/16.3%)",
            lambda m: m["slowdown:shared"] > m["slowdown:private_4x"] * 1.3
            and m["slowdown:shared"] > m["slowdown:cached"] * 1.3,
            lambda m: f"shared {m['slowdown:shared']:.3f} vs private "
            f"{m['slowdown:private_4x']:.3f}, cached {m['slowdown:cached']:.3f}",
        ),
        Claim(
            "metadata-traffic",
            "Fig. 12",
            "Security metadata adds substantial interconnect traffic "
            "(paper: +36.5% on average)",
            lambda m: 1.15 < m["traffic:private_4x"] < 1.6,
            lambda m: f"traffic amplification {m['traffic:private_4x']:.3f}",
        ),
        Claim(
            "traffic-slowdown-split",
            "Fig. 11",
            "Metadata bandwidth adds overhead beyond authenticated "
            "encryption alone (paper: 8.2% -> 19.5%)",
            lambda m: m["slowdown:private_4x"] > m["slowdown:secure_commu"],
            lambda m: f"+SecureCommu {m['slowdown:secure_commu']:.3f} -> "
            f"+Traffic {m['slowdown:private_4x']:.3f}",
        ),
        Claim(
            "bursty-communication",
            "Fig. 15",
            "16-block groups mostly accumulate within 160 cycles "
            "(paper: 69.2% on average)",
            lambda m: m["burst16_within_160"] > 0.4,
            lambda m: f"within 160 cycles: {m['burst16_within_160']:.1%}",
        ),
        Claim(
            "dynamic-beats-private",
            "Fig. 21",
            "Dynamic OTP allocation outperforms Private at equal storage "
            "(paper: 14.7% vs 19.5% overhead)",
            lambda m: m["slowdown:dynamic"] < m["slowdown:private_4x"],
            lambda m: f"dynamic {m['slowdown:dynamic']:.3f} vs private "
            f"{m['slowdown:private_4x']:.3f}",
        ),
        Claim(
            "batching-beats-dynamic",
            "Fig. 21",
            "Metadata batching further improves on Dynamic "
            "(paper: 7.9% vs 14.7% overhead)",
            lambda m: m["slowdown:batching"] < m["slowdown:dynamic"],
            lambda m: f"batching {m['slowdown:batching']:.3f} vs dynamic "
            f"{m['slowdown:dynamic']:.3f}",
        ),
        Claim(
            "more-buffers-help",
            "Fig. 8 / Fig. 21",
            "Scaling the OTP buffers from 4x to 16x reduces Private's "
            "degradation (paper: 19.5% -> 14.0%); the paper's stronger "
            "claim that Ours still beats Private-16x does NOT reproduce "
            "here (documented deviation: metadata bandwidth is underpriced "
            "by this substrate)",
            lambda m: m["slowdown:private_16x"] < m["slowdown:private_4x"],
            lambda m: f"private16x {m['slowdown:private_16x']:.3f} vs private4x "
            f"{m['slowdown:private_4x']:.3f} (batching {m['slowdown:batching']:.3f})",
        ),
        Claim(
            "batching-cuts-traffic",
            "Fig. 23",
            "Batching removes a large share of the secured traffic "
            "(paper: -20.2% vs Private)",
            lambda m: m["traffic:batching"] < m["traffic:private_4x"] - 0.08,
            lambda m: f"batching traffic {m['traffic:batching']:.3f} vs private "
            f"{m['traffic:private_4x']:.3f}",
        ),
        Claim(
            "ours-raises-full-hits",
            "Fig. 22",
            "Ours increases the fully-hidden (OTP_Hit) fraction over Private "
            "by reallocating buffers to the hot pairs (paper: +31.9 pp send)",
            lambda m: m["send_hit:batching"] > m["send_hit:private_4x"] + 0.02,
            lambda m: f"ours send OTP_Hit {m['send_hit:batching']:.1%} vs private "
            f"{m['send_hit:private_4x']:.1%}",
        ),
        Claim(
            "private-hides-partially",
            "Fig. 10",
            "Private pre-generation hides a meaningful share of AES latency",
            lambda m: m["private_send_hidden"] > 0.3,
            lambda m: f"send-side hidden fraction {m['private_send_hidden']:.1%}",
        ),
    ]


def check_paper_claims(runner: ExperimentRunner | None = None) -> list[Verdict]:
    """Evaluate every claim; returns verdicts in declaration order."""
    runner = runner or ExperimentRunner()
    measurements = _measurements(runner)
    verdicts = []
    for claim in paper_claims():
        try:
            passed = bool(claim.check(measurements))
            detail = claim.detail(measurements)
        except Exception as exc:  # a broken metric is a failed claim
            passed, detail = False, f"evaluation error: {exc}"
        verdicts.append(Verdict(claim=claim, passed=passed, detail=detail))
    return verdicts


def format_verdicts(verdicts: list[Verdict]) -> str:
    lines = ["Paper-claim validation", "======================"]
    for v in verdicts:
        mark = "PASS" if v.passed else "FAIL"
        lines.append(f"[{mark}] {v.claim.claim_id} ({v.claim.source}): {v.detail}")
    passed = sum(v.passed for v in verdicts)
    lines.append(f"-- {passed}/{len(verdicts)} claims reproduced")
    return "\n".join(lines)


__all__ = ["Claim", "Verdict", "paper_claims", "check_paper_claims", "format_verdicts"]
