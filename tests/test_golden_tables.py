"""Golden tables: the SHA-256 of every figure table the harnesses render.

The text tables are what users regenerate, so a change to how a harness
collects or averages its grid must leave every byte of them alone.  Each
table renders on one shared :class:`ExperimentRunner` per system size over
two small workloads, so each average row is a real geometric mean.

Both workloads are built from :class:`~repro.workloads.builder.TraceBuilder`
primitives with ``lane_jitter=0``, so nothing draws from numpy and the
hashes hold for any numpy release.  The builder takes the system's GPU
count, so Fig 24 renders at 8 GPUs on the same patterns.  The collectives
sweep is left out: its workloads are the numpy-seeded ``collective``
registry class.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from repro import validation
from repro.experiments import (
    ablations,
    fig08_otp_sensitivity,
    fig09_prior_schemes,
    fig10_otp_distribution,
    fig11_overhead_breakdown,
    fig12_traffic,
    fig15_16_burstiness,
    fig21_main_result,
    fig24_25_scaling,
    fig26_aes_latency,
    fig_adversary,
    fig_fault_sweep,
)
from repro.experiments.common import ExperimentRunner
from repro.memory.address_space import Placement
from repro.workloads.builder import TraceBuilder
from repro.workloads.registry import WorkloadSpec

N_LANES = 4


@lru_cache(maxsize=None)
def golden_trace(variant: str, n_gpus: int):
    """``gather``: remote reads that switch destination every access, a
    long compute gap, short bursts and host reads.  ``write``: remote
    writes, then a page of the next GPU read often enough to migrate."""
    b = TraceBuilder(f"golden-{variant}", n_gpus=n_gpus, n_lanes=N_LANES)
    shared = b.alloc("shared", 64 * 4 * n_gpus)  # pages interleaved over the GPUs
    host = b.alloc("host", 64 * 2, Placement.OWNER, owner=0)
    hot = b.alloc("hot", 64 * n_gpus, Placement.BLOCKED)  # one page per GPU
    for g in b.gpus():
        for lane in range(N_LANES):
            if variant == "gather":
                b.burst(g, lane, shared, start_block=17 * lane + 5 * g, n_blocks=12, gap=3, stride=65)
                b.compute(g, lane, 400)
                b.burst(g, lane, shared, start_block=64 * g + 8 * lane, n_blocks=5, gap=2)
                b.burst(g, lane, host, start_block=16 * lane + g, n_blocks=4, gap=4)
            else:
                b.burst(g, lane, shared, start_block=64 * (g % 4) + 40 + lane, n_blocks=6, gap=5, write=True)
                b.compute(g, lane, 300)
                peer_page = b.peer_gpu(g, 1) - 1
                b.burst(g, lane, hot, start_block=64 * peer_page + 16 * lane, n_blocks=16, gap=6)
    return b.build(lane_jitter=0)


def golden_spec(variant: str, abbr: str) -> WorkloadSpec:
    def build(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8):
        return golden_trace(variant, n_gpus)

    return WorkloadSpec(f"golden-{variant}", abbr, "golden", "high", build)


@pytest.fixture(scope="module")
def runners():
    specs = [golden_spec("gather", "gat"), golden_spec("write", "wr")]
    return {
        n: ExperimentRunner(n_gpus=n, workloads=specs, jobs=1, use_cache=False)
        for n in (4, 8)
    }


TABLES = {
    "fig08": lambda r: fig08_otp_sensitivity.format_result(fig08_otp_sensitivity.run(r[4])),
    "fig09": lambda r: fig09_prior_schemes.format_result(fig09_prior_schemes.run(r[4])),
    "fig10": lambda r: fig10_otp_distribution.format_result(fig10_otp_distribution.run(r[4])),
    "fig11": lambda r: fig11_overhead_breakdown.format_result(fig11_overhead_breakdown.run(r[4])),
    "fig12": lambda r: fig12_traffic.format_result(fig12_traffic.run(r[4])),
    "fig15": lambda r: fig15_16_burstiness.format_result(fig15_16_burstiness.run(r[4]), 16),
    "fig16": lambda r: fig15_16_burstiness.format_result(fig15_16_burstiness.run(r[4]), 32),
    "fig21": lambda r: fig21_main_result.format_result(fig21_main_result.run(r[4])),
    "fig24": lambda r: fig24_25_scaling.format_result(fig24_25_scaling.run(8, r[8])),
    "fig26": lambda r: fig26_aes_latency.format_result(fig26_aes_latency.run(r[4])),
    "ideal_bound": lambda r: ablations.format_ideal_bound(ablations.ideal_bound(r[4])),
    "extensions": lambda r: ablations.format_extensions(ablations.extensions_study(r[4])),
    "batch_size": lambda r: ablations.format_sweep(ablations.batch_size_sweep(r[4])),
    "interval": lambda r: ablations.format_sweep(ablations.interval_sweep(r[4])),
    "migration_threshold": lambda r: ablations.format_sweep(
        ablations.migration_threshold_sweep(r[4])
    ),
    "fabric": lambda r: ablations.format_sweep(ablations.fabric_sweep(r[4])),
    "fault": lambda r: fig_fault_sweep.format_result(fig_fault_sweep.run(r[4])),
    "adversary": lambda r: fig_adversary.format_result(fig_adversary.run(r[4])),
    "claims": lambda r: validation.format_verdicts(validation.check_paper_claims(r[4])),
}

#: SHA-256 of each rendered table's UTF-8 text.
GOLDEN = {
    "fig08": "9d6b17dfb4949ea4f6d33cba5278c0b540048fe04b383d1dd9fb1794ac7c6c2b",
    "fig09": "4628bd796be99fdccf55f9f66053bde0d766340fd8ca93f7fffe30c134b0e38d",
    "fig10": "843c7cce388cc284832d1d55753005285e9d17e4f95bd628c6b0b0bc86f79141",
    "fig11": "9a0c03bc56ad7c4494b5a7ec4679036353e0b71fbdc7996fe74e61e853ba27c2",
    "fig12": "ce125b3d45b3b0eca921c2f1d4c6ff80647f91af0843c77b02e23ce51542f217",
    "fig15": "085b4f77b2b336a5d58631b2570ffacceaab9743cf8896f54dc7d2a4ffd22256",
    "fig16": "b463f8d10fbf4db18ee9b25c5a7283257f374ebe8ed0cdbc6846d41216abadd9",
    "fig21": "6ce5e9cd8581f16bc86fb71101c288a267a1060c92f60905dcea2a31fd57dfe2",
    "fig24": "d15013d60f046710b55c12c06b655c6991535854c2a7aec82eb5221a25294239",
    "fig26": "3d66b51fde834355ce50eaf16c8b103a15e0b0a55c3d2eca99e7f4f3c9af4259",
    "ideal_bound": "a5ae9c34aa6a6496a6a27140ddf18c3d084476d46fe573d94515499533039c41",
    "extensions": "34f999f8777b3740749c979a9025889485374b5eee70dc16c7788b941be6a2e2",
    "batch_size": "ea4a39084ebf90076b935b0ba9a00f8ffead3d1e52a92dd5b6d279143206b6d7",
    "interval": "9cb612e88e7f41dab0613f02b7a25a0df18b8e8963effb7841719b30c9915f1b",
    "migration_threshold": "ec0f6c2028edf5e467fe829d77ac8f7fbb5365f22ea69f6b87137308c9c09bb1",
    "fabric": "fd6782d3ad9d614281319e2651e61bb39e654c8d09411d6abd271713ee25cf98",
    "fault": "f0ad2e3b5f9654254a327a75c70535b87841edf74c06a5a43e11f4b5a8757270",
    "adversary": "320cbf8fc920030a9d3126520f3e4dd3e8a032318ec7ddb88dfe521d3df5fd13",
    "claims": "a531d7fa35ca50dfe3567222e0bd44a7723069875f03decd6eefb018ec82fab7",
}


@pytest.mark.parametrize("table", list(TABLES))
def test_table_matches_its_golden_hash(runners, table):
    text = TABLES[table](runners)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[table], text
