"""Figures 12 and 23: interconnect traffic ratios."""

from repro.experiments import fig12_traffic


def test_fig12_23_traffic(benchmark, archive, runner_factory):
    runner = runner_factory(4)
    result = benchmark.pedantic(fig12_traffic.run, args=(runner,), rounds=1, iterations=1)
    archive("fig12_23_traffic", fig12_traffic.format_result(result))
    private = result.average_traffic("private")
    cached = result.average_traffic("cached")
    batching = result.average_traffic("batching")
    # Fig 12 shape: security metadata inflates traffic substantially
    assert 1.15 < private < 1.6
    # Fig 23 shape: batching reclaims a large share of the metadata bytes
    assert batching < private - 0.10
    assert batching < cached - 0.10
