"""Report generator smoke test (tiny workload set)."""

import json

from repro.experiments.report import generate_all
from repro.workloads import get_workload


def test_generate_all_writes_every_section(tmp_path):
    workloads = [get_workload("fir"), get_workload("kmeans")]
    sections = generate_all(
        tmp_path,
        scale=0.08,
        include_scaling=False,
        verbose=False,
        workloads=workloads,
    )
    expected = {
        "table1_storage",
        "hw_overhead",
        "fig15_16_burstiness",
        "fig13_14_timelines",
        "fig08_otp_sensitivity",
        "fig09_prior_schemes",
        "fig11_overhead_breakdown",
        "fig21_main_result",
        "fig10_22_otp_distribution",
        "fig12_23_traffic",
        "fig26_aes_latency",
    }
    assert expected <= set(sections)
    for name in expected:
        assert (tmp_path / f"{name}.txt").exists()
        assert sections[name].strip()
    combined = (tmp_path / "report.txt").read_text()
    assert "Figure 21" in combined and "Table I" in combined
    # one wall-clock phase per section; never part of a report
    profile = json.loads((tmp_path / "PROFILE.json").read_text())
    assert set(profile) == {"phases"}
    assert set(profile["phases"]) == {f"experiment.{name}" for name in sections}
    for phase in profile["phases"].values():
        assert phase["calls"] == 1 and phase["seconds"] >= 0.0
