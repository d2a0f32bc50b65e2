"""Active-adversary sweep: attack mixes vs. schemes, zero-undetected contract.

Puts an adversary *in the fabric* (:mod:`repro.secure.adversary`) and sweeps
attack mixes across schemes.  The headline asymmetry mirrors the fault
sweep, but against a malicious rather than a merely unreliable link: the
unsecure baseline consumes tampered, replayed, spliced, and forged blocks
without ever noticing (``accepted`` counts them), while every secure scheme
must end the run with **zero** accepted-undetected attacks — each injected
manipulation either dies at the MsgMAC / counter check (``detected``) or
provably changed nothing (``harmless``, e.g. a reorder the counter protocol
absorbs).  A per-transport :class:`~repro.secure.invariants.InvariantMonitor`
sanitizer independently audits every run, so a contract breach fails twice.

The composite "attack rate" r splits into the seven attack classes as 25 %
ciphertext flips, 10 % MAC flips, 20 % replays, 15 % reorders, 10 %
truncations, 10 % cross-link splices, and 10 % forgeries per the "all" mix;
the focused mixes concentrate the same budget on one attack family.

Not a paper figure: this is the reproduction's adversarial-robustness
harness (see ``docs/ROBUSTNESS.md``), run at small scale as a CI smoke
check via :func:`smoke`, which additionally exercises detection-driven
link quarantine and reroute.
"""

from __future__ import annotations

from repro.configs import SystemConfig, scheme_config
from repro.experiments.ascii_chart import hbar_chart
from repro.experiments.common import ExperimentRunner, Grid, fmt, format_table
from repro.secure.adversary import AttackReport
from repro.workloads import get_workload

#: Composite attack rate: probability any one data-block wire copy is hit.
RATE = 0.04

#: Named attack mixes: fractions of the composite rate per attack class.
MIXES: dict[str, dict[str, float]] = {
    # everything at once, weighted toward the cheap high-volume attacks
    "all": {
        "flip_cipher_rate": 0.25,
        "flip_mac_rate": 0.10,
        "replay_rate": 0.20,
        "reorder_rate": 0.15,
        "truncate_rate": 0.10,
        "splice_rate": 0.10,
        "forge_rate": 0.10,
    },
    # integrity attacks only: bit flips and truncation die at the MsgMAC
    "tamper": {
        "flip_cipher_rate": 0.5,
        "flip_mac_rate": 0.25,
        "truncate_rate": 0.25,
    },
    # freshness attacks only: replays and window-boundary reorders
    "replay": {
        "replay_rate": 0.6,
        "reorder_rate": 0.4,
    },
    # injection attacks only: cross-link splices and from-scratch forgeries
    "inject": {
        "splice_rate": 0.5,
        "forge_rate": 0.5,
    },
}

#: Schemes compared: the undefended baseline and one representative of each
#: secure protocol family (conventional, dynamic allocation, batching).
SCHEMES = ("unsecure", "private", "dynamic", "batching")


def adversary_overrides(
    mix: str, rate: float = RATE, seed: int = 0, quarantine_threshold: int = 0
) -> dict[str, float | int]:
    """Split a composite attack rate into the per-class injector knobs."""
    out: dict[str, float | int] = {
        knob: fraction * rate for knob, fraction in MIXES[mix].items()
    }
    out["seed"] = seed
    out["quarantine_threshold"] = quarantine_threshold
    return out


def adversary_config(
    scheme: str,
    mix: str,
    rate: float = RATE,
    n_gpus: int = 4,
    quarantine_threshold: int = 0,
) -> SystemConfig:
    """Scheme config under one attack mix (rate 0 = the pristine config,
    so its cells hash and simulate identically to an adversary-free sweep)."""
    config = scheme_config(scheme, n_gpus=n_gpus)
    if rate > 0:
        config = config.with_adversary(
            **adversary_overrides(mix, rate, quarantine_threshold=quarantine_threshold)
        )
    return config


def run(
    runner: ExperimentRunner | None = None,
    mixes: tuple[str, ...] = tuple(MIXES),
    schemes: tuple[str, ...] = SCHEMES,
) -> Grid:
    """Every scheme under every attack mix at rate :data:`RATE`, keyed
    ``(scheme, mix)``, each normalized to the attack-free unsecure run."""
    runner = runner or ExperimentRunner()
    return runner.sweep(
        {
            (scheme, mix): adversary_config(scheme, mix, n_gpus=runner.n_gpus)
            for scheme in schemes
            for mix in mixes
        }
    )


def attack_totals(grid: Grid, key: tuple[str, str]) -> AttackReport:
    """Attack ledgers of ``key``'s cells merged across workloads."""
    totals = AttackReport()
    for row in grid.rows:
        ledger = row.by_config[key].attack_report
        if ledger is not None:
            totals.merge(ledger)
    return totals


def assert_zero_undetected(grid: Grid) -> int:
    """Fail loudly unless every secure scheme detected every effective attack.

    Returns the number of (scheme, mix) cells checked.  This is the
    contract the CI smoke job enforces: under every attack mix a secure
    scheme ends with ``accepted_undetected == 0`` and a fully resolved
    ledger, while the unsecure baseline *must* have accepted attacks —
    proving the injector genuinely lands its manipulations.
    """
    ledgers = {key: attack_totals(grid, key) for key in grid.keys}
    checked = 0
    for (scheme, mix), ledger in ledgers.items():
        if ledger.total_injected == 0:
            raise AssertionError(
                f"{scheme} @ mix {mix!r}: no attacks injected — sweep too small?"
            )
        if ledger.unresolved:
            raise AssertionError(
                f"{scheme} @ mix {mix!r}: {ledger.unresolved} injected "
                "attack(s) never resolved"
            )
        if scheme == "unsecure":
            continue
        if ledger.accepted_undetected:
            raise AssertionError(
                f"{scheme} @ mix {mix!r}: {ledger.accepted_undetected} "
                "attack(s) accepted undetected"
            )
        checked += 1
    landed = [
        ledger.accepted_undetected
        for (scheme, _), ledger in ledgers.items()
        if scheme == "unsecure"
    ]
    if landed and not any(landed):
        raise AssertionError(
            "unsecure baseline accepted no attacks — injector ineffective?"
        )
    return checked


def check_quarantine(
    scale: float = 0.05,
    threshold: int = 3,
    jobs: int | None = None,
    use_cache: bool | None = None,
) -> AttackReport:
    """Drive repeated tamper detections into link quarantine and reroute.

    Runs one tamper-heavy cell with a finite quarantine threshold and
    asserts that at least one directed link was quarantined, that the run
    still completed (traffic rerouted over the memoized alternate path),
    and that the zero-undetected contract survived the failover.
    """
    runner = ExperimentRunner(
        scale=scale,
        workloads=[get_workload("fir")],
        jobs=jobs,
        use_cache=use_cache,
    )
    spec = runner.workloads[0]
    config = adversary_config(
        "private", "tamper", rate=2 * RATE, n_gpus=runner.n_gpus,
        quarantine_threshold=threshold,
    )
    report = runner.run(spec, config)
    ledger = report.attack_report
    if ledger is None or not ledger.quarantined:
        raise AssertionError(
            f"quarantine threshold {threshold} triggered no link quarantine"
        )
    if ledger.accepted_undetected or ledger.unresolved:
        raise AssertionError(
            f"quarantine failover broke the contract: {ledger.as_dict()}"
        )
    return ledger


def format_result(grid: Grid) -> str:
    schemes, mixes = grid.axis(0), grid.axis(1)
    rows = [
        [scheme, *[fmt(grid.average((scheme, mix))) for mix in mixes]]
        for scheme in schemes
    ]
    table = format_table(
        f"Adversary sweep: slowdown vs. attack-free unsecure "
        f"(r={RATE:g}, {grid.n_gpus} GPUs)",
        ["scheme", *mixes],
        rows,
    )

    ledger_rows = []
    for scheme in schemes:
        totals = AttackReport()
        for mix in mixes:
            totals.merge(attack_totals(grid, (scheme, mix)))
        ledger_rows.append(
            [
                scheme,
                str(totals.total_injected),
                str(totals.total_detected),
                str(totals.total_harmless),
                str(totals.accepted_undetected),
            ]
        )
    ledger = format_table(
        "Attack ledger merged across mixes",
        ["scheme", "injected", "detected", "harmless", "accepted"],
        ledger_rows,
    )

    chart = hbar_chart(
        "Slowdown under the 'all' mix (| marks the attack-free baseline)",
        [(scheme, grid.average((scheme, "all"))) for scheme in schemes],
        baseline=1.0,
    )
    return "\n\n".join([table, ledger, chart])


#: Small high-traffic workload set for the CI smoke run: enough remote
#: data blocks to exercise every attack class without a long wall clock.
SMOKE_WORKLOADS = ("fir", "stencil2d", "matrixtranspose")


def smoke(
    scale: float = 0.05,
    mixes: tuple[str, ...] = tuple(MIXES),
    jobs: int | None = None,
    use_cache: bool | None = None,
) -> Grid:
    """CI-scale adversary sweep enforcing the zero-undetected contract."""
    runner = ExperimentRunner(
        scale=scale,
        workloads=[get_workload(name) for name in SMOKE_WORKLOADS],
        jobs=jobs,
        use_cache=use_cache,
    )
    grid = run(runner, mixes=mixes)
    checked = assert_zero_undetected(grid)
    quarantined = check_quarantine(scale=scale, jobs=jobs, use_cache=use_cache)
    injected = sum(attack_totals(grid, key).total_injected for key in grid.keys)
    print(format_result(grid))
    print(
        f"\nsmoke: {checked} secure cells checked, {injected} attacks injected, "
        f"0 accepted undetected; quarantine rerouted "
        f"{len(quarantined.quarantined)} link(s)"
    )
    return grid


__all__ = [
    "RATE",
    "MIXES",
    "SCHEMES",
    "SMOKE_WORKLOADS",
    "adversary_overrides",
    "adversary_config",
    "run",
    "attack_totals",
    "assert_zero_undetected",
    "check_quarantine",
    "format_result",
    "smoke",
]
