"""System configuration — the simulated machine of Table III.

Every experiment builds a :class:`SystemConfig` (usually via
:func:`default_config`) and overrides only what its sweep varies: the OTP
scheme, the OTP multiplier (``OTP Nx``), the AES-GCM latency, or the GPU
count.  All cycle quantities are at the 1 GHz shader clock, so GB/s values
from the paper translate numerically into bytes/cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class GpuConfig:
    """Per-GPU microarchitecture (Table III, abstracted).

    The trace sets the lane count (``SweepJob.n_lanes``, 8 by default):
    each compute-unit lane stands for a group of CUs sharing an L1 (the
    full 64-CU machine is folded into fewer lanes to keep the Python model
    tractable — burstiness and overlap, the properties the paper's
    mechanisms react to, come from lane multiplicity, not the absolute CU
    count).
    """

    lane_outstanding: int = 8  # wavefront-dependency cap per lane
    max_outstanding: int = 64  # GPU-wide remote-request window (MSHR-like)
    l1_size: int = 16 * 1024
    l1_assoc: int = 4
    l2_size: int = 2 * 1024 * 1024
    l2_assoc: int = 16
    hbm_latency: int = 160
    hbm_bytes_per_cycle: float = 512.0
    iommu_walk_cycles: int = 200
    l1_tlb_entries: int = 64
    l2_tlb_entries: int = 1024


@dataclass(frozen=True)
class LinkConfig:
    """Interconnect rates (Table III) and the GPU-fabric organization.

    ``fabric``: ``p2p`` (per-GPU full-rate ports, the paper's setting),
    ``ring`` (rack-scale ring, messages hop through intermediate GPUs), or
    ``switch`` (central NVSwitch-like crossbar with finite aggregate
    bandwidth = ``switch_factor`` × a port rate).
    """

    pcie_bytes_per_cycle: float = 32.0
    nvlink_bytes_per_cycle: float = 50.0
    pcie_latency: int = 120
    nvlink_latency: int = 60
    fabric: str = "p2p"
    switch_factor: float = 4.0


@dataclass(frozen=True)
class MetadataConfig:
    """Wire sizes of the security metadata (§II-C, §IV-D).

    ``compressed_counters`` is an optional extension beyond the paper
    (Common-Counters-style delta encoding): per-pair channels deliver in
    FIFO order, so the full 64-bit MsgCTR can be replaced by a short delta
    against the receiver's expected counter, resynchronized via the ACK
    stream.
    """

    msg_ctr_bytes: int = 8
    msg_mac_bytes: int = 8
    sender_id_bytes: int = 1
    ack_bytes: int = 16
    batch_len_bytes: int = 1
    compressed_counters: bool = False
    compressed_ctr_bytes: int = 2

    @property
    def wire_ctr_bytes(self) -> int:
        return self.compressed_ctr_bytes if self.compressed_counters else self.msg_ctr_bytes

    @property
    def per_message_meta_bytes(self) -> int:
        """CTR + MAC + sender ID attached to each secured message."""
        return self.wire_ctr_bytes + self.msg_mac_bytes + self.sender_id_bytes

    @property
    def batched_block_meta_bytes(self) -> int:
        """Metadata still attached per block when batching is on."""
        return self.wire_ctr_bytes + self.sender_id_bytes


@dataclass(frozen=True)
class SecurityConfig:
    """Which protection scheme runs and how it is provisioned."""

    scheme: str = "unsecure"  # unsecure | private | shared | cached | dynamic
    otp_multiplier: int = 4  # the paper's "OTP Nx"
    aes_gcm_latency: int = 40
    ghash_latency: int = 4  # MAC compute with a ready pad
    xor_latency: int = 1  # en/decrypt with a ready pad
    count_metadata: bool = True  # False isolates +SecureCommu (Fig. 11)
    batching: bool = False
    batch_size: int = 16
    batch_timeout: int = 160  # cycles an open batch waits before closing
    alpha: float = 0.9  # EWMA rate, send/recv direction split
    beta: float = 0.5  # EWMA rate, per-destination split
    interval: int = 1000  # T, the monitoring/adjustment interval
    audit: bool = False  # record secured messages for functional replay
    protect_requests: bool = False  # extension: secure control messages too [34]
    metadata: MetadataConfig = field(default_factory=MetadataConfig)

    def __post_init__(self) -> None:
        # The AES-GCM engines are fully pipelined (§IV-A): these three
        # latencies are their whole timing model.
        if self.aes_gcm_latency < 1:
            raise ValueError("pad latency must be >= 1 cycle")
        if self.ghash_latency < 0 or self.xor_latency < 0:
            raise ValueError("latencies must be non-negative")
        if self.batch_timeout < 1:
            raise ValueError("batch timeout must be >= 1")

    def total_otp_entries(self, n_peers: int) -> int:
        """Pool size per processor: peers x 2 directions x multiplier."""
        return n_peers * 2 * self.otp_multiplier


@dataclass(frozen=True)
class FaultConfig:
    """Unreliable-interconnect model: injected link faults and recovery knobs.

    Per secured data-block transmission a single seeded roll picks at most
    one fault (rates are therefore mutually exclusive and must sum to <= 1):

    * ``drop_rate``      — the packet vanishes on the wire (bandwidth is
      still consumed: the bits were sent, then lost),
    * ``corrupt_rate``   — a payload bit flips; secure channels catch it at
      MsgMAC verification, the unsecure fabric delivers it silently,
    * ``duplicate_rate`` — the link replays the wire message once more,
    * ``delay_rate``     — a latency spike of ``delay_cycles`` (congestion,
      lane retraining) hits the packet.

    The recovery side belongs to the secure channel: a sender arms a
    retransmission timer per outstanding block (``ack_timeout`` cycles on
    the wire without an ACK), backs off exponentially by ``backoff_factor``
    up to ``backoff_max`` per retry, and gives up after ``max_retries``
    retransmissions with a structured
    :class:`~repro.interconnect.faults.LinkFailureError` instead of hanging.

    All randomness derives from ``seed`` via per-directed-pair generators,
    so runs are bit-reproducible across serial / parallel / cached
    execution regardless of event interleaving between pairs.
    """

    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    delay_cycles: int = 800
    seed: int = 0
    ack_timeout: int = 2500  # sender RTO: cycles on the wire without an ACK
    max_retries: int = 8  # retransmissions before declaring link failure
    backoff_factor: float = 2.0
    backoff_max: int = 40000  # RTO ceiling under repeated timeouts

    def __post_init__(self) -> None:
        rates = (self.drop_rate, self.corrupt_rate, self.duplicate_rate, self.delay_rate)
        if any(not 0.0 <= r <= 1.0 for r in rates):
            raise ValueError("fault rates must be probabilities in [0, 1]")
        if sum(rates) > 1.0 + 1e-12:
            raise ValueError("combined fault rate cannot exceed 1")
        if self.delay_cycles < 0:
            raise ValueError("delay_cycles must be non-negative")
        if self.ack_timeout < 1:
            raise ValueError("ack_timeout must be at least one cycle")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.backoff_max < self.ack_timeout:
            raise ValueError("backoff_max must be >= ack_timeout")

    @property
    def total_rate(self) -> float:
        return self.drop_rate + self.corrupt_rate + self.duplicate_rate + self.delay_rate

    @property
    def enabled(self) -> bool:
        """True when any fault can actually fire; False keeps every hot
        path (and every cache key) identical to the clean-channel model."""
        return self.total_rate > 0.0


@dataclass(frozen=True)
class AdversaryConfig:
    """Active in-fabric adversary: targeted attacks on secured data blocks.

    Where :class:`FaultConfig` models *random* link failures, this models a
    man-in-the-fabric who captures, mutates, re-injects, redirects, and
    forges wire traffic.  Per data-block wire copy a single seeded roll
    picks at most one attack (rates are mutually exclusive, sum <= 1):

    * ``flip_cipher_rate`` — flip bits in the ciphertext payload,
    * ``flip_mac_rate``    — flip bits in the attached MsgMAC tag,
    * ``replay_rate``      — capture the block and re-inject an exact copy
      ``replay_lag`` cycles later (same counter, same MAC),
    * ``reorder_rate``     — hold the block ``reorder_lag`` cycles so later
      counters overtake it (probes the ACK replay-window boundary),
    * ``truncate_rate``    — cut the block short on the wire,
    * ``splice_rate``      — redirect the block onto another directed link
      (it arrives at the wrong receiver and never at the right one),
    * ``forge_rate``       — inject a from-scratch fabricated block
      alongside the legitimate one, under a counter the sender never used.

    ``replay_window`` is the sender-side out-of-order ACK tolerance handed
    to every :class:`~repro.secure.replay.ReplayGuard` while the adversary
    is active (dormant configs keep the strict-FIFO default).  When
    ``quarantine_threshold`` > 0, that many detections on one directed
    link quarantine it: the :class:`~repro.interconnect.topology.Topology`
    reroutes the pair over a memoized alternate path, escaping a
    link-local attacker.

    All randomness derives from ``seed`` via per-directed-pair generators
    (the same bit-reproducibility contract as :class:`FaultConfig`).
    """

    flip_cipher_rate: float = 0.0
    flip_mac_rate: float = 0.0
    replay_rate: float = 0.0
    reorder_rate: float = 0.0
    truncate_rate: float = 0.0
    splice_rate: float = 0.0
    forge_rate: float = 0.0
    seed: int = 0
    replay_lag: int = 600  # cycles the attacker holds a captured copy
    reorder_lag: int = 400  # extra cycles a reordered block is delayed
    replay_window: int = 8  # sender-side out-of-order ACK tolerance
    quarantine_threshold: int = 0  # detections per link before failover (0 = never)

    _RATE_FIELDS = (
        "flip_cipher_rate",
        "flip_mac_rate",
        "replay_rate",
        "reorder_rate",
        "truncate_rate",
        "splice_rate",
        "forge_rate",
    )

    def __post_init__(self) -> None:
        rates = [getattr(self, name) for name in self._RATE_FIELDS]
        if any(not 0.0 <= r <= 1.0 for r in rates):
            raise ValueError("attack rates must be probabilities in [0, 1]")
        if sum(rates) > 1.0 + 1e-12:
            raise ValueError("combined attack rate cannot exceed 1")
        if self.replay_lag < 0 or self.reorder_lag < 0:
            raise ValueError("attack lags must be non-negative")
        if self.replay_window < 0:
            raise ValueError("replay_window must be non-negative")
        if self.quarantine_threshold < 0:
            raise ValueError("quarantine_threshold must be non-negative")

    @property
    def total_rate(self) -> float:
        return sum(getattr(self, name) for name in self._RATE_FIELDS)

    @property
    def enabled(self) -> bool:
        """True when any attack can fire; False keeps every hot path (and
        every cache key) identical to the adversary-free model."""
        return self.total_rate > 0.0


@dataclass(frozen=True)
class MigrationConfig:
    """Access-counter page-migration policy parameters (§V-A)."""

    threshold: int = 8
    driver_cycles: int = 2000
    shootdown_cycles: int = 800


@dataclass(frozen=True)
class SystemConfig:
    """The whole simulated machine."""

    n_gpus: int = 4
    gpu: GpuConfig = field(default_factory=GpuConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    security: SecurityConfig = field(default_factory=SecurityConfig)
    migration: MigrationConfig = field(default_factory=MigrationConfig)
    fault: FaultConfig = field(default_factory=FaultConfig)
    adversary: AdversaryConfig = field(default_factory=AdversaryConfig)
    cpu_dram_latency: int = 220
    timeline_interval: int = 5000  # bucketing for Figs 13/14 series

    @property
    def n_nodes(self) -> int:
        return self.n_gpus + 1

    @property
    def n_peers(self) -> int:
        """Peers of any node: everyone else (CPU + other GPUs)."""
        return self.n_nodes - 1

    def with_security(self, **overrides) -> "SystemConfig":
        return replace(self, security=replace(self.security, **overrides))

    def with_fault(self, **overrides) -> "SystemConfig":
        return replace(self, fault=replace(self.fault, **overrides))

    def with_adversary(self, **overrides) -> "SystemConfig":
        return replace(self, adversary=replace(self.adversary, **overrides))


def default_config(n_gpus: int = 4, **security_overrides) -> SystemConfig:
    """Table III configuration with optional security overrides."""
    cfg = SystemConfig(n_gpus=n_gpus)
    if security_overrides:
        cfg = cfg.with_security(**security_overrides)
    return cfg


# Named configurations matching the paper's evaluated systems.
def scheme_config(scheme: str, n_gpus: int = 4, otp_multiplier: int = 4) -> SystemConfig:
    """Build the configuration for one of the paper's evaluated schemes.

    ``scheme`` accepts the paper's names: ``unsecure``, ``private``,
    ``shared``, ``cached``, ``dynamic``, and ``batching`` (= Dynamic +
    metadata batching, the paper's "Ours").
    """
    if scheme == "batching":
        return default_config(n_gpus, scheme="dynamic", batching=True,
                              otp_multiplier=otp_multiplier)
    return default_config(n_gpus, scheme=scheme, otp_multiplier=otp_multiplier)


__all__ = [
    "GpuConfig",
    "LinkConfig",
    "MetadataConfig",
    "SecurityConfig",
    "FaultConfig",
    "AdversaryConfig",
    "MigrationConfig",
    "SystemConfig",
    "default_config",
    "scheme_config",
]
