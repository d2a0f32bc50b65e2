"""Ablation benches on the proposal's design choices (DESIGN.md §7)."""

from repro.configs import default_config
from repro.experiments import ablations


def test_ablation_batch_size(benchmark, archive, runner_factory):
    runner = runner_factory(4)
    result = benchmark.pedantic(
        ablations.batch_size_sweep, args=(runner,), rounds=1, iterations=1
    )
    archive("ablation_batch_size", ablations.format_sweep(result))
    # the best batching size must beat not batching at all
    dynamic_only = runner.sweep({"dynamic": default_config(4, scheme="dynamic")}).average(
        "dynamic"
    )
    assert min(result.averages.values()) <= dynamic_only + 0.01


def test_ablation_interval(benchmark, archive, runner_factory):
    runner = runner_factory(4)
    result = benchmark.pedantic(
        ablations.interval_sweep, args=(runner,), rounds=1, iterations=1
    )
    archive("ablation_interval", ablations.format_sweep(result))
    values = list(result.averages.values())
    assert max(values) - min(values) < 0.5  # T is a mild knob, not a cliff


def test_ablation_ideal_bound(benchmark, archive, runner_factory):
    runner = runner_factory(4)
    result = benchmark.pedantic(ablations.ideal_bound, args=(runner,), rounds=1, iterations=1)
    archive("ablation_ideal_bound", ablations.format_ideal_bound(result))
    ideal = result.average("ideal")
    dynamic = result.average("dynamic")
    ideal_batched = result.average("ideal_batched")
    # unbounded pads upper-bound any buffer-management scheme ...
    assert ideal <= dynamic + 0.01
    # ... and still pay the metadata floor, which batching lowers
    assert ideal_batched <= ideal + 0.01
    assert ideal > 1.0


def test_ablation_extensions(benchmark, archive, runner_factory):
    runner = runner_factory(4)
    result = benchmark.pedantic(
        ablations.extensions_study, args=(runner,), rounds=1, iterations=1
    )
    archive("ablation_extensions", ablations.format_extensions(result))
    ours_traffic = result.average_traffic("ours")
    comp_traffic = result.average_traffic("ours+compressed_ctr")
    prot_traffic = result.average_traffic("ours+protect_requests")
    assert comp_traffic < ours_traffic < prot_traffic


def test_ablation_fabric(benchmark, archive, runner_factory):
    runner = runner_factory(4)
    result = benchmark.pedantic(
        ablations.fabric_sweep, args=(runner,), rounds=1, iterations=1
    )
    archive("ablation_fabric", ablations.format_sweep(result))
    # shared ring segments amplify the security bandwidth tax relative to
    # dedicated point-to-point ports
    assert result.averages["ring"] > result.averages["p2p"] - 0.02


def test_ablation_migration_threshold(benchmark, archive, runner_factory):
    runner = runner_factory(4)
    result = benchmark.pedantic(
        ablations.migration_threshold_sweep, args=(runner,), rounds=1, iterations=1
    )
    archive("ablation_migration_threshold", ablations.format_sweep(result))
    assert all(v > 0.8 for v in result.averages.values())
