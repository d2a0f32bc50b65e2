"""Parameterized synthetic workload: dial the communication axes directly.

The Table IV generators mirror specific benchmarks; this one exposes the
underlying axes — remote-access fraction, burst length, compute gap,
destination skew, and phase drift — as direct knobs, for sensitivity
studies and for users modeling their own applications:

* ``remote_fraction``  — share of accesses that target other processors;
* ``burst_length``     — consecutive remote blocks per burst (Figs 15/16);
* ``gap``              — compute cycles between accesses (sets RPKI);
* ``skew``             — Zipf-like concentration of remote destinations
  (0 = uniform across peers, larger = one dominant peer);
* ``phase_length``     — bursts before the preferred destination rotates
  (drives the Figs 13/14 drift the Dynamic allocator feeds on);
* ``cpu_share``        — fraction of remote traffic aimed at the host.
"""

from __future__ import annotations

import numpy as np

from repro.memory.address_space import Placement
from repro.workloads.builder import TraceBuilder
from repro.workloads.compiled import CompiledTrace
from repro.workloads.registry import WorkloadSpec


def _destination_weights(peers: list[int], preferred_idx: int, skew: float) -> np.ndarray:
    """Weights over peers: uniform at skew 0, concentrated as skew grows."""
    weights = np.ones(len(peers), dtype=float)
    weights[preferred_idx] += skew * len(peers)
    return weights / weights.sum()


def synthetic_workload(
    n_gpus: int,
    seed: int = 0,
    scale: float = 1.0,
    n_lanes: int = 8,
    remote_fraction: float = 0.5,
    burst_length: int = 16,
    gap: int = 2,
    skew: float = 1.0,
    phase_length: int = 12,
    cpu_share: float = 0.1,
    bursts_per_lane: int = 40,
) -> CompiledTrace:
    """Build a trace with the requested communication profile."""
    if not 0.0 <= remote_fraction <= 1.0:
        raise ValueError("remote_fraction must be a fraction")
    if not 0.0 <= cpu_share <= 1.0:
        raise ValueError("cpu_share must be a fraction")
    if burst_length < 1 or phase_length < 1 or bursts_per_lane < 1:
        raise ValueError("burst/phase/bursts counts must be positive")
    if gap < 0 or skew < 0:
        raise ValueError("gap and skew must be non-negative")

    b = TraceBuilder("synthetic", n_gpus, seed, n_lanes)
    total_bursts = max(1, int(bursts_per_lane * scale))
    local = b.alloc("local", n_gpus * 16 * 64, Placement.BLOCKED)
    shared = b.alloc("shared", max(n_gpus, 2) * 8 * 64, Placement.BLOCKED, pinned=True)
    host = b.alloc("host", 8 * 64, Placement.OWNER, owner=0, pinned=True)

    for g in b.gpus():
        my_first, my_blocks = b.blocked_range(local, g)
        peers = [p for p in b.gpus() if p != g]
        for lane in range(n_lanes):
            rng = np.random.default_rng(seed * 100_003 + g * 1009 + lane)
            preferred = int(rng.integers(0, max(1, len(peers))))
            for burst_idx in range(total_bursts):
                if peers and burst_idx % phase_length == phase_length - 1:
                    preferred = (preferred + 1) % len(peers)  # phase drift
                if rng.random() < remote_fraction:
                    if rng.random() < cpu_share or not peers:
                        array, first, blocks = host, 0, host.n_blocks
                    else:
                        weights = _destination_weights(peers, preferred, skew)
                        dest = peers[int(rng.choice(len(peers), p=weights))]
                        first, blocks = b.blocked_range(shared, dest)
                        array = shared
                        if blocks == 0:
                            first, blocks = 0, shared.n_blocks
                    start = int(rng.integers(0, max(1, blocks - burst_length)))
                    b.burst(g, lane, array, first + start, burst_length, gap=gap)
                else:
                    start = int(rng.integers(0, max(1, my_blocks - burst_length)))
                    b.burst(g, lane, local, my_first + start, burst_length, gap=gap)
                b.compute(g, lane, gap * burst_length)
    return b.build()


def synthetic_spec(name: str = "synthetic", rpki_class: str = "medium", **knobs) -> WorkloadSpec:
    """Wrap the synthetic generator as a registry-compatible spec."""

    def builder(n_gpus: int, seed: int = 0, scale: float = 1.0, n_lanes: int = 8):
        return synthetic_workload(
            n_gpus=n_gpus, seed=seed, scale=scale, n_lanes=n_lanes, **knobs
        )

    return WorkloadSpec(
        name=name, abbr=name, suite="synthetic", rpki_class=rpki_class, builder=builder
    )


__all__ = ["synthetic_workload", "synthetic_spec"]
