"""Figure 26: AES-GCM latency sensitivity."""

from repro.experiments import fig26_aes_latency as fig26


def test_fig26_aes_latency(benchmark, archive, runner_factory):
    runner = runner_factory(4)
    result = benchmark.pedantic(fig26.run, args=(runner,), rounds=1, iterations=1)
    archive("fig26_aes_latency", fig26.format_result(result))
    for scheme in fig26.SCHEME_KEYS:
        fast = result.average((scheme, 10))
        slow = result.average((scheme, 40))
        # shrinking the engine latency helps, but only modestly — the
        # bandwidth cost of the metadata persists (the paper's point)
        assert fast <= slow + 0.01
        assert slow - fast < 0.15
    # Ours stays ahead of Private at every latency point
    for lat in fig26.LATENCIES:
        assert result.average(("ours", lat)) < result.average(("private", lat))
