"""Whole-system assembly and simulation entry point.

:class:`MultiGpuSystem` wires the substrates together — topology, transport
(secure or not), page table + migration policy, host CPU, and one
:class:`~repro.gpu.gpu.GpuDevice` per GPU — loads a workload trace, runs
the event loop, and distills a :class:`SimulationReport` carrying every
quantity the paper's figures plot.

Typical use::

    from repro import MultiGpuSystem, scheme_config, get_workload

    trace = get_workload("matrixmultiplication").generate(n_gpus=4, seed=1)
    report = MultiGpuSystem(scheme_config("batching")).run(trace)
    print(report.execution_cycles, report.traffic_bytes)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.configs import SystemConfig
from repro.gpu.cpu import DRAM_BYTES_PER_CYCLE, MemoryNode
from repro.gpu.gpu import GpuDevice
from repro.gpu.hbm import HbmModel
from repro.interconnect.topology import CPU_NODE, Topology
from repro.memory.migration import AccessCounterMigrationPolicy
from repro.memory.page_table import PageTable
from repro.obs import MetricsRegistry
from repro.secure.adversary import AttackReport
from repro.secure.channel import SecureTransport, build_transport
from repro.sim.engine import Simulator
from repro.sim.stats import FaultStats
from repro.workloads.compiled import CompiledTrace
from repro.workloads.rpki import rpki_of


@dataclass
class OtpDistribution:
    """Hit/partial/miss fractions for one direction (Figs 10/22)."""

    hit: float = 0.0
    partial: float = 0.0
    miss: float = 0.0

    @property
    def hidden(self) -> float:
        """Fully or partially hidden fraction, as the paper reports."""
        return self.hit + self.partial


@dataclass
class SimulationReport:
    """Everything measured in one run."""

    workload: str
    scheme: str
    n_gpus: int
    execution_cycles: int
    traffic_bytes: int
    base_traffic_bytes: int
    meta_traffic_bytes: int
    remote_requests: int
    migrations: int
    otp_send: OtpDistribution = field(default_factory=OtpDistribution)
    otp_recv: OtpDistribution = field(default_factory=OtpDistribution)
    rpki: float = 0.0
    acks_sent: int = 0
    batch_macs_sent: int = 0
    per_gpu_finish: dict[int, int] = field(default_factory=dict)
    burst16_fractions: list[float] = field(default_factory=list)
    burst32_fractions: list[float] = field(default_factory=list)
    timelines: dict = field(default_factory=dict)
    events_processed: int = 0
    #: populated only when link-fault injection is enabled
    fault_stats: FaultStats | None = None
    #: populated only when an active adversary is configured
    attack_report: AttackReport | None = None
    #: uniform-namespace metrics snapshot (see ``docs/OBSERVABILITY.md``):
    #: a JSON-safe dict of ``{"otp.send": {...}, "meta.bytes": {...}, ...}``
    #: harvested from the run's :class:`~repro.obs.MetricsRegistry` at
    #: report time
    metrics: dict = field(default_factory=dict)

    def slowdown_vs(self, baseline: "SimulationReport") -> float:
        """Normalized execution time (1.0 = the baseline's)."""
        if baseline.execution_cycles <= 0:
            raise ValueError("baseline has no execution time")
        return self.execution_cycles / baseline.execution_cycles

    def traffic_ratio_vs(self, baseline: "SimulationReport") -> float:
        if baseline.traffic_bytes <= 0:
            raise ValueError("baseline has no traffic")
        return self.traffic_bytes / baseline.traffic_bytes


class MultiGpuSystem:
    """Builds and runs one simulated machine for one workload."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        #: run-scoped metrics; their snapshot becomes ``report.metrics``
        self.metrics = MetricsRegistry()
        self.sim = Simulator()
        self.topology = Topology(
            n_gpus=config.n_gpus,
            pcie_bytes_per_cycle=config.link.pcie_bytes_per_cycle,
            nvlink_bytes_per_cycle=config.link.nvlink_bytes_per_cycle,
            pcie_latency=config.link.pcie_latency,
            nvlink_latency=config.link.nvlink_latency,
            fabric=config.link.fabric,
            switch_factor=config.link.switch_factor,
        )
        self.transport = build_transport(self.sim, self.topology, config, self.metrics)
        self.cpu: MemoryNode | None = None
        self.gpus: dict[int, GpuDevice] = {}
        self.page_table: PageTable | None = None
        self._ran = False

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _build_devices(self, trace: CompiledTrace) -> None:
        cfg = self.config
        self.page_table = PageTable(trace.initial_owners)
        policy = AccessCounterMigrationPolicy(self.page_table, threshold=cfg.migration.threshold)
        for page in trace.pinned_pages:
            policy.pin(page)

        dram = HbmModel("cpu.dram", cfg.cpu_dram_latency, DRAM_BYTES_PER_CYCLE)
        self.cpu = MemoryNode(CPU_NODE, self.sim, self.transport, dram)
        for node in self.topology.gpu_nodes():
            self.gpus[node] = GpuDevice(
                node_id=node,
                sim=self.sim,
                cfg=cfg.gpu,
                transport=self.transport,
                page_table=self.page_table,
                migration_policy=policy,
                migration_cfg=cfg.migration,
                on_migration_commit=self._on_migration_commit,
            )
        for node, gpu_trace in trace.gpu_traces.items():
            if node not in self.gpus:
                raise ValueError(f"trace targets GPU node {node} outside the system")
            self.gpus[node].load_trace(gpu_trace)

    def _on_migration_commit(self, page: int, old_owner: int, new_owner: int) -> None:
        """Driver-side shootdown: every other GPU drops its stale page state
        (the host caches nothing GPU-visible)."""
        for gpu in self.gpus.values():
            if gpu.node_id != new_owner:
                gpu.invalidate_page(page)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, trace: CompiledTrace) -> SimulationReport:
        if self._ran:
            raise RuntimeError("a MultiGpuSystem instance runs exactly one workload")
        self._ran = True
        try:
            # Generated traces were validated when built; hand-made and
            # disk-loaded ones are checked only here.
            trace.validate()
            self._build_devices(trace)
            for gpu in self.gpus.values():
                gpu.start()
            self.sim.run()
            return self._report(trace)
        finally:
            # The engine runs no collection, so a finished machine must be
            # acyclic for refcounting to free it: cut the back-references
            # from the transport (delivery handlers), the devices (commit
            # hook) and the last wakeup events (bound pumps).
            self.transport._handlers.clear()
            for gpu in self.gpus.values():
                gpu.on_migration_commit = None
                gpu._wakeup = None

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _report(self, trace: CompiledTrace) -> SimulationReport:
        finishes = {
            node: gpu.finish_cycle
            for node, gpu in self.gpus.items()
            if gpu.finish_cycle is not None
        }
        unfinished = [n for n, g in self.gpus.items() if g.lanes and g.finish_cycle is None]
        if unfinished:
            raise RuntimeError(f"GPUs {unfinished} never drained — deadlocked workload?")
        execution = max(finishes.values()) if finishes else self.sim.now

        scheme_name = self.config.security.scheme
        if self.config.security.batching:
            scheme_name = "batching"
        remote = sum(g.remote_requests for g in self.gpus.values())
        report = SimulationReport(
            workload=trace.name,
            scheme=scheme_name,
            n_gpus=self.config.n_gpus,
            execution_cycles=execution,
            traffic_bytes=self.topology.total_bytes,
            base_traffic_bytes=self.topology.base_bytes,
            meta_traffic_bytes=self.topology.meta_bytes,
            remote_requests=remote,
            migrations=self.page_table.migrations if self.page_table else 0,
            rpki=rpki_of(remote, sum(g.instructions for g in self.gpus.values())),
            per_gpu_finish=finishes,
            events_processed=self.sim.events_processed,
        )

        report.burst16_fractions = self.transport.burst16.fractions()
        report.burst32_fractions = self.transport.burst32.fractions()
        report.timelines = self.transport.timelines

        if isinstance(self.transport, SecureTransport):
            report.acks_sent = self.transport.acks_sent
            report.batch_macs_sent = self.transport.batch_macs_sent
        if self.transport.fault_stats is not None:
            report.fault_stats = self.transport.fault_stats
        if self.transport.attack_report is not None:
            report.attack_report = self.transport.attack_report
        self._harvest_metrics(report)
        if self.transport.monitor is not None:
            # Sanitizer pass: a violated security invariant fails the run
            # loudly rather than shipping a report built on broken crypto
            # bookkeeping (only an adversary run attaches a monitor).
            self.transport.run_invariant_checks()
        return report

    def _harvest_metrics(self, report: SimulationReport) -> None:
        """Fold the run's measurements into the uniform metric namespace.

        Every scheme — unsecure included — emits the same core
        (``run.* traffic.* meta.* msg.* engine.* burst.*``); secure schemes
        add ``otp.*``/``ack.*``/``batch.*``, the dynamic allocator adds
        ``alloc.*``, and live ``fault.*`` counters were already recorded by
        the transport during the run.  The merged ``otp.*`` ratios also give
        the report its OTP fractions.  The resulting snapshot is a pure
        function of the job description, so it survives the result cache
        and the process-pool boundary bit-identically.
        """
        m = self.metrics
        m.counter("run.cycles").add(report.execution_cycles)
        m.counter("run.remote_requests").add(report.remote_requests)
        m.counter("run.migrations").add(report.migrations)
        m.gauge("run.rpki").set(report.rpki)
        m.counter("traffic.bytes").add(report.traffic_bytes)
        m.counter("traffic.base_bytes").add(report.base_traffic_bytes)
        m.counter("meta.bytes").add(report.meta_traffic_bytes)
        m.counter("msg.sent").add(self.transport.messages_sent)
        m.counter("msg.data_blocks").add(self.transport.data_blocks)
        m.counter("engine.events").add(report.events_processed)
        m.counter("engine.pushes").add(self.sim.pushes)
        m.counter("engine.cancelled").add(self.sim.cancelled)
        m.register("burst.accum16", self.transport.burst16)
        m.register("burst.accum32", self.transport.burst32)
        if isinstance(self.transport, SecureTransport):
            send, recv = m.ratio("otp.send"), m.ratio("otp.recv")
            for scheme in self.transport.schemes.values():
                send.merge(scheme.send_outcomes)
                recv.merge(scheme.recv_outcomes)
            report.otp_send = OtpDistribution(**send.fractions())
            report.otp_recv = OtpDistribution(**recv.fractions())
            m.counter("ack.sent").add(self.transport.acks_sent)
            m.counter("batch.macs_sent").add(self.transport.batch_macs_sent)
            # Conformance-oracle feed (docs/VERIFICATION.md): the message
            # split the metadata byte law is written in, the batch life
            # cycle counters its batched form sums over, the end-of-run
            # pool gauge the conservation law checks, and the replay-guard
            # ledger the ACK-accounting law audits.
            m.counter("meta.conventional_msgs").add(self.transport.conventional_msgs)
            m.counter("meta.batched_blocks").add(self.transport.batched_blocks)
            batchers = self.transport.batchers.values()
            m.counter("batch.opened").add(sum(b.batches_opened for b in batchers))
            m.counter("batch.closed_full").add(sum(b.batches_closed_full for b in batchers))
            m.counter("batch.closed_timeout").add(
                sum(b.batches_closed_timeout for b in batchers)
            )
            m.counter("batch.stale_timeouts").add(sum(b.stale_timeouts for b in batchers))
            m.gauge("otp.pool_entries").set(
                sum(s.pool_size() for s in self.transport.schemes.values())
            )
            guards = self.transport.guards.values()
            m.counter("ack.guard_acked").add(sum(g.acked for g in guards))
            m.counter("ack.guard_violations").add(sum(g.violations for g in guards))
            m.counter("ack.guard_dropped").add(sum(g.dropped for g in guards))
            m.gauge("ack.guard_outstanding").set(sum(g.outstanding() for g in guards))
            allocators = [
                s.allocator
                for s in self.transport.schemes.values()
                if hasattr(s, "allocator")
            ]
            if allocators:
                m.counter("alloc.adjustments").add(sum(a.adjustments for a in allocators))
                m.counter("alloc.idle_intervals").add(
                    sum(a.idle_intervals for a in allocators)
                )
                m.counter("alloc.plans_applied").add(
                    sum(
                        s.plans_applied
                        for s in self.transport.schemes.values()
                        if hasattr(s, "plans_applied")
                    )
                )
        if report.attack_report is not None:
            # Rollup of the per-attack ledger next to the live adv.* event
            # counters the transport recorded during the run.
            ar = report.attack_report
            m.counter("adv.injected").add(ar.total_injected)
            m.counter("adv.detected").add(ar.total_detected)
            m.counter("adv.harmless").add(ar.total_harmless)
            m.counter("adv.accepted_undetected").add(ar.accepted_undetected)
            m.counter("adv.quarantined_links").add(len(ar.quarantined))
            monitor = self.transport.monitor
            if monitor is not None:
                m.counter("adv.invariant_violations").add(len(monitor.violations))
        report.metrics = m.snapshot()


def run_workload(config: SystemConfig, trace: CompiledTrace) -> SimulationReport:
    """One-shot convenience wrapper."""
    return MultiGpuSystem(config).run(trace)


__all__ = ["MultiGpuSystem", "SimulationReport", "OtpDistribution", "run_workload"]
