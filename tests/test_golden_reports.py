"""Golden reports: the canonical-report SHA-256 of small cells that the
benchmark grids never reach.

The CI digests pin the three benchmark grids, which use only each
scheme's default configuration.  These cells cover the other leaves a
hot-path change could move without anyone noticing: secured control
messages, +SecureCommu (no metadata bytes), the audit log, the ring and
switch fabrics, batches closed by their timeout, Shared and Cached under
destination switches, page migrations with their shootdowns, and hostile
links: link faults alone, the adversary alone, and both at once.

The trace is built from :class:`~repro.workloads.builder.TraceBuilder`
primitives with ``lane_jitter=0``, so nothing draws from numpy and the
hashes hold for any numpy release; the hostile cells' perturbation rolls
come from Python's ``random`` seeded by a string.  A change that moves a
hash changes a report: it is a simulation change, not a speed-up.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.configs import scheme_config
from repro.memory.address_space import Placement
from repro.runner.serialize import report_to_dict
from repro.secure.schemes.shared import SharedScheme
from repro.system import MultiGpuSystem
from repro.workloads.builder import TraceBuilder

N_GPUS = 4
N_LANES = 4


def golden_trace():
    """Remote gathers across every peer, short bursts that leave batches
    open past their timeout, host reads, remote writes, and a page each
    GPU pulls over once its access counter crosses the threshold."""
    b = TraceBuilder("golden", n_gpus=N_GPUS, n_lanes=N_LANES)
    shared = b.alloc("shared", 64 * 16)  # 16 pages, interleaved over the GPUs
    host = b.alloc("host", 64 * 2, Placement.OWNER, owner=0)
    hot = b.alloc("hot", 64 * N_GPUS, Placement.BLOCKED)  # one page per GPU
    for g in b.gpus():
        for lane in range(N_LANES):
            # a 65-block stride lands each access on the next page, so
            # consecutive messages switch destination
            b.burst(g, lane, shared, start_block=17 * lane + 5 * g, n_blocks=12, gap=3, stride=65)
            b.compute(g, lane, 400)
            b.burst(g, lane, shared, start_block=64 * g + 8 * lane, n_blocks=5, gap=2)
            b.compute(g, lane, 300)
            b.burst(g, lane, host, start_block=16 * lane + g, n_blocks=4, gap=4)
            b.burst(g, lane, shared, start_block=64 * (g % 4) + 40 + lane, n_blocks=3, gap=5, write=True)
            # the next GPU's page of ``hot``: 16 distinct blocks per lane
            # cross the migration threshold
            peer_page = b.peer_gpu(g, 1) - 1
            b.burst(g, lane, hot, start_block=64 * peer_page + 16 * lane, n_blocks=16, gap=6)
    return b.build(lane_jitter=0)


def _cell(scheme, **security):
    cfg = scheme_config(scheme, n_gpus=N_GPUS)
    return cfg.with_security(**security) if security else cfg


def _fabric(cfg, fabric):
    return replace(cfg, link=replace(cfg.link, fabric=fabric))


CELLS = {
    "private-protect-requests": _cell("private", protect_requests=True),
    "dynamic-no-metadata": _cell("dynamic", count_metadata=False),
    "private-audit": _cell("private", audit=True),
    "batching-timeout": _cell("batching"),
    "batching-ring": _fabric(_cell("batching"), "ring"),
    "private-switch": _fabric(_cell("private"), "switch"),
    "shared": _cell("shared"),
    "cached": _cell("cached"),
    "batching-hostile": _cell("batching")
    .with_fault(drop_rate=0.02, corrupt_rate=0.02, seed=3)
    .with_adversary(replay_rate=0.02, flip_cipher_rate=0.02, reorder_rate=0.02, seed=3),
    # one hostile section each: recovery counts under fault.* with no
    # monitor, or under adv.* with no FaultStats
    "private-fault": _cell("private").with_fault(
        drop_rate=0.02, corrupt_rate=0.02, duplicate_rate=0.01, delay_rate=0.01, seed=3
    ),
    "private-adversary": _cell("private").with_adversary(
        replay_rate=0.02, flip_cipher_rate=0.02, reorder_rate=0.02, forge_rate=0.01, seed=3
    ),
}

#: SHA-256 of each cell's canonical report JSON (sorted keys, compact).
GOLDEN = {
    "private-protect-requests": "009bde1415f5f1ba1ea43bf482ae643a6d8e3c04a15393fe6af1ecf392a6bd86",
    "dynamic-no-metadata": "d1baea791c868432cf130c87cf4c8bef4f91c8613e72b8423db63b369b866a53",
    "private-audit": "07bdf4e91f845ebf892ade144c5a34fbc5ccbba8e80161b30dcc2dbbb637b9da",
    "batching-timeout": "3e5f12c378888b8d4c9e8b74b668e43ca1ee65c9e136686aeed49e329f9a2efa",
    "batching-ring": "d529f7a8292c8c1cd9ad5bf797a3b4468afdd4ca14de3792ef846c0d94610ad5",
    "private-switch": "9b789c34a1572178243a2fdd7fba3b3daa207762faf1dd79db47542671aafee4",
    "shared": "f71eb9ae2d1430360309d2cad68da3c1104d7c7d3fce015c6445e372888c83db",
    "cached": "f79f30c61d435f84641265a58d383c1e7b8707a728c1923c052a397ef41691dd",
    "batching-hostile": "a74f24d1cbb90e635870cf6bc4224195e2a31070c35e68b71f053e6c08dfa1bc",
    "private-fault": "6828f428a3f99f17cac7109dea04e52666411798be9b60f20bdc1cf4211eec5a",
    "private-adversary": "3fe57166358ae0f6df75f69fa067d493cb599df7ac5a96b0dbb33a96d31caa1e",
}


@pytest.fixture(scope="module")
def trace():
    return golden_trace()


def canonical_sha256(report) -> str:
    text = json.dumps(report_to_dict(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("cell", list(CELLS))
def test_report_matches_its_golden_hash(trace, cell):
    system = MultiGpuSystem(CELLS[cell])
    report = system.run(trace)
    assert canonical_sha256(report) == GOLDEN[cell]


def test_cells_exercise_what_they_name(trace, calls):
    """Each cell reaches the leaf it is named for, so its hash pins it."""

    def capacities(scheme):
        return {(d, p): scheme.stream_capacity(d, p) for d in ("send", "recv") for p in scheme.peers}

    shared_sends = calls(SharedScheme, "acquire_send")
    systems = {name: MultiGpuSystem(cfg) for name, cfg in CELLS.items()}
    cached = systems["cached"].transport.schemes
    initial_shares = {node: capacities(scheme) for node, scheme in cached.items()}
    reports = {name: system.run(trace) for name, system in systems.items()}

    def metric(cell, name):
        return reports[cell].metrics.get(name, {}).get("value", 0)

    assert all(report.migrations > 0 for report in reports.values())
    assert metric("batching-timeout", "batch.closed_timeout") > 0
    assert metric("dynamic-no-metadata", "meta.bytes") == 0
    assert metric("private-protect-requests", "meta.conventional_msgs") > metric(
        "private-switch", "meta.conventional_msgs"
    )
    assert systems["private-audit"].transport.audit_log
    assert systems["batching-ring"].topology.fabric == "ring"
    assert systems["private-switch"].topology.fabric == "switch"
    # a destination switch is a Shared send the receiver cannot follow
    assert any(not synced for _, _, (_, synced) in shared_sends)
    # Cached stole entries: some stream left its initial share
    assert any(capacities(s) != initial_shares[node] for node, s in cached.items())
    hostile = reports["batching-hostile"]
    assert hostile.fault_stats.retransmits > 0
    assert hostile.attack_report.as_dict()["detected"]
    fault_only = reports["private-fault"]
    assert fault_only.fault_stats is not None and fault_only.attack_report is None
    assert systems["private-fault"].transport.monitor is None
    assert (metric("private-fault", "fault.dup_discard"), metric("private-fault", "fault.delay")) == (11, 10)
    adversary_only = reports["private-adversary"]
    assert adversary_only.fault_stats is None and adversary_only.attack_report is not None
    assert systems["private-adversary"].transport.monitor is not None
    assert (
        metric("private-adversary", "adv.retransmit"),
        metric("private-adversary", "adv.forge_injected"),
    ) == (26, 17)
    assert fault_only.migrations == adversary_only.migrations == 13
