"""Command-line interface: ``repro-sim`` / ``python -m repro``.

Subcommands:

* ``run``         — simulate one workload under one scheme
* ``compare``     — one workload across all schemes, normalized table
* ``experiment``  — regenerate a paper table/figure by name
* ``metrics``     — dump/diff/tail/check metrics exports (``docs/OBSERVABILITY.md``)
* ``verify``      — differential conformance harness (``docs/VERIFICATION.md``)
* ``list``        — list workloads and experiments
"""

from __future__ import annotations

import argparse
import sys

from repro.configs import scheme_config
from repro.workloads import all_workloads, get_workload

SCHEMES = ("unsecure", "private", "shared", "cached", "dynamic", "batching", "ideal")

EXPERIMENTS = {
    "table1": ("repro.experiments.table1_storage", {}),
    "collectives": ("repro.experiments.fig_collectives", {"needs_runner": True}),
    "fig8": ("repro.experiments.fig08_otp_sensitivity", {"needs_runner": True}),
    "fig9": ("repro.experiments.fig09_prior_schemes", {"needs_runner": True}),
    "fig10": ("repro.experiments.fig10_otp_distribution", {"needs_runner": True}),
    "fig11": ("repro.experiments.fig11_overhead_breakdown", {"needs_runner": True}),
    "fig12": ("repro.experiments.fig12_traffic", {"needs_runner": True}),
    "fig13": ("repro.experiments.fig13_14_timelines", {"needs_runner": True}),
    "fig15": ("repro.experiments.fig15_16_burstiness", {"needs_runner": True}),
    "fig21": ("repro.experiments.fig21_main_result", {"needs_runner": True}),
    "fig26": ("repro.experiments.fig26_aes_latency", {"needs_runner": True}),
    "fault": ("repro.experiments.fig_fault_sweep", {"needs_runner": True}),
    "adversary": ("repro.experiments.fig_adversary", {"needs_runner": True}),
}


def _add_runner_args(sub_parser: argparse.ArgumentParser) -> None:
    """Execution flags shared by every simulating subcommand."""
    group = sub_parser.add_argument_group("execution")
    group.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for independent cells (default: $REPRO_JOBS or 1)",
    )
    group.add_argument(
        "--cache-dir", default=None,
        help="persistent result-cache directory (default: results/.cache)",
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent result cache for this invocation",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Secure multi-GPU communication simulator (HPCA 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one workload under one scheme")
    run_p.add_argument("workload", help="workload name or Table IV abbreviation")
    run_p.add_argument("--scheme", choices=SCHEMES, default="batching")
    run_p.add_argument("--gpus", type=int, default=4)
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--scale", type=float, default=1.0)
    run_p.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write the run's metrics snapshot as JSONL to PATH",
    )
    _add_runner_args(run_p)

    cmp_p = sub.add_parser("compare", help="one workload across all schemes")
    cmp_p.add_argument("workload")
    cmp_p.add_argument("--gpus", type=int, default=4)
    cmp_p.add_argument("--seed", type=int, default=1)
    cmp_p.add_argument("--scale", type=float, default=1.0)
    _add_runner_args(cmp_p)

    exp_p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp_p.add_argument("name", choices=[*sorted(EXPERIMENTS), "all"])
    exp_p.add_argument("--gpus", type=int, default=4)
    exp_p.add_argument("--seed", type=int, default=1)
    exp_p.add_argument("--scale", type=float, default=0.5)
    exp_p.add_argument("--out", default="results/full", help="output dir for 'all'")
    _add_runner_args(exp_p)

    val_p = sub.add_parser("validate", help="check the paper's claims against this build")
    val_p.add_argument("--gpus", type=int, default=4)
    val_p.add_argument("--seed", type=int, default=1)
    val_p.add_argument("--scale", type=float, default=1.0)
    _add_runner_args(val_p)

    met_p = sub.add_parser("metrics", help="inspect and validate metrics exports")
    met_sub = met_p.add_subparsers(dest="metrics_command", required=True)
    dump_p = met_sub.add_parser("dump", help="pretty-print a metrics export")
    dump_p.add_argument("file")
    diff_p = met_sub.add_parser("diff", help="compare two exports (exit 1 on differences)")
    diff_p.add_argument("a")
    diff_p.add_argument("b")
    tail_p = met_sub.add_parser("tail", help="show the last N metrics of an export")
    tail_p.add_argument("file")
    tail_p.add_argument("-n", type=int, default=10, dest="count")
    check_p = met_sub.add_parser(
        "check", help="validate names/namespaces/payloads (exit 1 on violations)"
    )
    check_p.add_argument("file")

    ver_p = sub.add_parser(
        "verify", help="run the differential conformance harness"
    )
    depth = ver_p.add_mutually_exclusive_group()
    depth.add_argument(
        "--quick", dest="mode", action="store_const", const="quick",
        help="smoke matrix: 3 workloads x all schemes at small scale (default)",
    )
    depth.add_argument(
        "--full", dest="mode", action="store_const", const="full",
        help="full matrix: Table IV + collectives, dormant variants, seed stability",
    )
    ver_p.set_defaults(mode="quick")
    ver_p.add_argument("--gpus", type=int, default=4)
    ver_p.add_argument("--seed", type=int, default=1)
    ver_p.add_argument(
        "--artifact-dir", default=None,
        help="where minimized repro artifacts land (default: results/verify)",
    )
    ver_p.add_argument(
        "--no-shrink", action="store_true",
        help="report violations without minimizing them",
    )
    ver_p.add_argument(
        "--replay", metavar="ARTIFACT", default=None,
        help="re-run a saved repro artifact instead of the matrix",
    )
    _add_runner_args(ver_p)

    sub.add_parser("list", help="list workloads and experiments")
    return parser


def _sweeper(args):
    from repro.runner import SweepRunner, default_cache

    use_cache = False if args.no_cache else None
    return SweepRunner(jobs=args.jobs, cache=default_cache(args.cache_dir, use_cache))


def _runner_kwargs(args) -> dict:
    return {
        "jobs": args.jobs,
        "cache_dir": args.cache_dir,
        "use_cache": False if args.no_cache else None,
    }


def _cmd_run(args) -> int:
    from repro.runner import SweepJob

    spec = get_workload(args.workload)
    job = SweepJob(
        spec=spec,
        config=scheme_config(args.scheme, n_gpus=args.gpus),
        seed=args.seed,
        scale=args.scale,
    )
    report = _sweeper(args).run_jobs([job])[0]
    if args.metrics:
        from repro.obs import write_metrics_jsonl

        count = write_metrics_jsonl(report.metrics, args.metrics)
        print(f"wrote {count} metrics to {args.metrics}")
    print(f"workload           {spec.name} ({spec.suite}, {spec.rpki_class} RPKI)")
    print(f"scheme             {report.scheme}")
    print(f"execution cycles   {report.execution_cycles}")
    print(f"remote requests    {report.remote_requests}")
    print(f"RPKI               {report.rpki:.1f}")
    print(f"page migrations    {report.migrations}")
    print(f"traffic bytes      {report.traffic_bytes} ({report.meta_traffic_bytes} metadata)")
    if report.scheme != "unsecure":
        print(f"OTP send hit/partial/miss  {report.otp_send.hit:.1%} / "
              f"{report.otp_send.partial:.1%} / {report.otp_send.miss:.1%}")
        print(f"OTP recv hit/partial/miss  {report.otp_recv.hit:.1%} / "
              f"{report.otp_recv.partial:.1%} / {report.otp_recv.miss:.1%}")
    return 0


def _cmd_compare(args) -> int:
    from repro.runner import SweepJob

    spec = get_workload(args.workload)
    jobs = [
        SweepJob(
            spec=spec,
            config=scheme_config(scheme, n_gpus=args.gpus),
            seed=args.seed,
            scale=args.scale,
        )
        for scheme in SCHEMES
    ]
    reports = _sweeper(args).run_jobs(jobs)  # all schemes fan out together
    baseline = reports[0]
    print(f"{spec.name} on {args.gpus} GPUs (normalized to unsecure, "
          f"{baseline.execution_cycles} cycles)")
    print(f"{'scheme':10s} {'slowdown':>9s} {'traffic':>9s} {'send hit':>9s} {'recv hit':>9s}")
    for scheme, report in zip(SCHEMES[1:], reports[1:]):
        print(
            f"{scheme:10s} {report.slowdown_vs(baseline):9.3f} "
            f"{report.traffic_ratio_vs(baseline):9.3f} "
            f"{report.otp_send.hit:9.1%} {report.otp_recv.hit:9.1%}"
        )
    return 0


def _cmd_experiment(args) -> int:
    import importlib

    if args.name == "all":
        from repro.experiments.report import generate_all

        sections = generate_all(
            args.out, scale=args.scale, seed=args.seed, **_runner_kwargs(args)
        )
        print(f"\nwrote {len(sections)} experiment tables to {args.out}/")
        return 0

    module_name, opts = EXPERIMENTS[args.name]
    module = importlib.import_module(module_name)
    if opts.get("needs_runner"):
        from repro.experiments.common import ExperimentRunner

        runner = ExperimentRunner(
            n_gpus=args.gpus, seed=args.seed, scale=args.scale, **_runner_kwargs(args)
        )
        result = module.run(runner)
    else:
        result = module.run()
    text = module.format_result(result)
    print(text)
    # Archive the table next to the benchmark outputs so a CLI regeneration
    # leaves the same artifact a `pytest benchmarks/` run would.
    from pathlib import Path

    out = Path("results") / f"{args.name}.txt"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text + "\n")
    print(f"\n[written to {out}]")
    return 0


def _cmd_validate(args) -> int:
    from repro.experiments.common import ExperimentRunner
    from repro.validation import check_paper_claims, format_verdicts

    runner = ExperimentRunner(
        n_gpus=args.gpus, seed=args.seed, scale=args.scale, **_runner_kwargs(args)
    )
    verdicts = check_paper_claims(runner)
    print(format_verdicts(verdicts))
    return 0 if all(v.passed for v in verdicts) else 1


def _cmd_verify(args) -> int:
    from repro.verify import ReproArtifact, evaluate_cells, format_result, run_verify

    runner = _sweeper(args)

    if args.replay:
        from repro.runner import default_trace_store

        artifact = ReproArtifact.load(args.replay)
        print(f"replaying {args.replay}: {artifact.violation.oracle} "
              f"on {len(artifact.cells)} cell(s)")
        found = evaluate_cells(
            artifact.violation.oracle, artifact.cells,
            trace_store=runner.trace_store or default_trace_store(),
        )
        if found:
            print(found[0].describe())
            print("violation still reproduces")
            return 1
        print("violation no longer reproduces on this build")
        return 0

    result = run_verify(
        args.mode,
        n_gpus=args.gpus,
        seed=args.seed,
        runner=runner,
        do_shrink=not args.no_shrink,
        artifact_dir=args.artifact_dir or "results/verify",
    )
    print(format_result(result))
    return 0 if result.ok else 1


def _cmd_metrics(args) -> int:
    import json

    from repro.obs import diff_metrics, metrics_to_jsonl, read_metrics, validate_metrics_file

    if args.metrics_command == "dump":
        metrics = read_metrics(args.file)
        for name in sorted(metrics):
            print(json.dumps({"name": name, **metrics[name]}, sort_keys=True))
        return 0
    if args.metrics_command == "diff":
        differences = diff_metrics(read_metrics(args.a), read_metrics(args.b))
        for line in differences:
            print(line)
        if not differences:
            print("identical")
        return 1 if differences else 0
    if args.metrics_command == "tail":
        lines = metrics_to_jsonl(read_metrics(args.file)).splitlines()
        for line in lines[-max(args.count, 0):]:
            print(line)
        return 0
    if args.metrics_command == "check":
        errors = validate_metrics_file(args.file)
        for error in errors:
            print(error, file=sys.stderr)
        if errors:
            print(f"{args.file}: {len(errors)} violation(s)", file=sys.stderr)
        else:
            print(f"{args.file}: OK")
        return 1 if errors else 0
    raise AssertionError(f"unhandled metrics command {args.metrics_command}")


def _cmd_list() -> int:
    from repro.workloads import all_collectives

    print("Workloads (Table IV):")
    for spec in all_workloads():
        print(f"  {spec.abbr:7s} {spec.name:22s} {spec.suite:12s} {spec.rpki_class} RPKI")
    print("\nCollectives (docs/WORKLOADS.md):")
    for spec in all_collectives():
        print(f"  {spec.abbr:7s} {spec.name:22s} {spec.suite:12s} {spec.rpki_class}")
    print("\nExperiments:", ", ".join(sorted(EXPERIMENTS)))
    print("Schemes:", ", ".join(SCHEMES))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "list":
        return _cmd_list()
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
