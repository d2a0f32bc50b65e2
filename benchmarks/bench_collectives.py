"""Collectives sweep: schemes × NCCL-style collective workloads."""

from repro.experiments import fig_collectives


def test_collectives(benchmark, archive, runner_factory):
    # The dynamic allocator needs interval-level statistics; collective
    # traces floor at scale 0.25 (see fig_collectives.smoke).
    runner = runner_factory(4, min_scale=0.25)
    result = benchmark.pedantic(
        fig_collectives.run, args=(runner,), rounds=1, iterations=1
    )
    archive("fig_collectives", fig_collectives.format_result(result))
    # The collectives contract: the full proposal never prices a collective
    # above the conventional per-message protocol at equal storage.
    assert fig_collectives.assert_batching_wins(result) == len(result.rows)
    # Batching's reason to exist on this traffic: chunked bursts batch into
    # one MsgMAC + one ACK, reclaiming a large share of the metadata bytes.
    private_traffic = result.average_traffic("private")
    batching_traffic = result.average_traffic("batching")
    assert batching_traffic < private_traffic - 0.10
