"""Figure 8: Private slowdown vs OTP buffer entries (4 GPUs)."""

from repro.experiments import fig08_otp_sensitivity as fig08


def test_fig08_otp_sensitivity(benchmark, archive, runner_factory):
    runner = runner_factory(4)
    result = benchmark.pedantic(fig08.run, args=(runner,), rounds=1, iterations=1)
    archive("fig08_otp_sensitivity", fig08.format_result(result))
    # shape: more OTP entries monotonically (allowing small noise) reduce
    # the average overhead, with a steep drop from 1x
    averages = [result.average(m) for m in result.keys]
    assert averages[0] == max(averages)
    assert averages[-1] <= averages[0] - 0.02
    assert all(avg >= 0.99 for avg in averages)
