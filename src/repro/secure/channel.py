"""Transports: the unsecured fabric and the secure channel layer.

``UnsecureTransport`` moves packets straight over the topology — the
baseline every figure normalizes against.  ``SecureTransport`` applies the
full protection pipeline of Fig. 5 around the same topology:

sender:   acquire send pads (scheme) → XOR encrypt + GHASH MAC → attach
          metadata bytes (conventional or batched) → serialize on the link
receiver: acquire receive pads (scheme, honouring counter sync) → XOR
          decrypt (+ blocking MAC verify unless lazily batched) → deliver
          → emit replay-protection ACK (per message, or per batch)

When the configuration enables link-fault injection
(:class:`~repro.configs.FaultConfig`), the secure transport additionally
runs a detection-driven recovery protocol (see ``docs/ROBUSTNESS.md``):
corrupted blocks fail their MsgMAC and trigger a NACK, dropped blocks fire
a sender-side retransmission timer with exponential backoff, wire
duplicates are rejected by the receiver's counter check, and a retry
budget bounds how long any block keeps the link busy — exhausting it
raises a structured :class:`~repro.interconnect.faults.LinkFailureError`.
Every retransmitted block burns a fresh counter/pad, so recovery cost
feeds straight back into the OTP allocator the paper studies.

On a hostile link (faults, an adversary, or both) both transports put
every data-block wire copy through one wire step,
:meth:`_TransportBase._hostile_wire`, which decides and applies the copy's
fault and attack once.  The unsecure fabric reads its result as
deliver-but-count; the secure channel reads it as check-and-recover.

Both transports also collect the paper's motivation measurements: per-node
send/receive timelines (Figs 13/14) and per-pair data-block burstiness
histograms (Figs 15/16).
"""

from __future__ import annotations

from repro.configs import SystemConfig
from repro.core.batching import BatchingController, MsgMacStorage
from repro.interconnect.faults import FaultVerdict, LinkFailureError
from repro.interconnect.packet import Packet, PacketKind
from repro.interconnect.topology import Topology
from repro.obs import Telemetry
from repro.secure.adversary import (
    ALIEN_KINDS,
    TAMPER_KINDS,
    AttackKind,
    AttackReport,
    LinkPerturbation,
)
from repro.secure.audit import AuditEntry
from repro.secure.engine import AesGcmEngineModel
from repro.secure.invariants import InvariantMonitor
from repro.secure.metadata import MetadataAccountant
from repro.secure.replay import ReplayGuard
from repro.secure.schemes import build_scheme
from repro.sim.engine import Simulator
from repro.sim.stats import FaultStats, Histogram, IntervalSeries
from repro.transport import DeliveryHandler

#: Histogram bin edges of Figs 15/16.
BURST_EDGES = [40, 160, 640, 2560]

#: Kinds excluded from the request timelines (protocol housekeeping).
_HOUSEKEEPING = frozenset({PacketKind.SEC_ACK, PacketKind.SEC_NACK, PacketKind.BATCH_MAC})

#: The :class:`FaultStats` counter each injected fault verdict bumps.
_INJECTED = {
    FaultVerdict.DROP: "drops_injected",
    FaultVerdict.CORRUPT: "corruptions_injected",
    FaultVerdict.DUPLICATE: "duplicates_injected",
    FaultVerdict.DELAY: "delays_injected",
}

#: Attacks that leave the original wire copy untouched and add a copy of
#: their own; every other attack works on the original in place.
_COPYING = frozenset({AttackKind.REPLAY, AttackKind.SPLICE, AttackKind.FORGE})


class _PendingMessage:
    """Sender-side retransmission state for one in-flight data block."""

    __slots__ = (
        "packet",
        "counter",
        "counters",
        "batch_ctx",
        "attempts",
        "rto",
        "timer",
        "first_sent",
    )

    def __init__(self, packet: Packet, counter: int, batch_ctx, rto: int, now: int) -> None:
        self.packet = packet
        self.counter = counter  # the counter of the *current* wire copy
        self.counters = [counter]  # every counter any copy ever used
        self.batch_ctx = batch_ctx
        self.attempts = 1  # transmissions so far (first copy included)
        self.rto = rto
        self.timer = None
        self.first_sent = now


class _TransportBase:
    """Delivery registry plus the measurement instrumentation."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        cfg: SystemConfig,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.cfg = cfg
        #: run-scoped metric sink; the owning system passes its own so the
        #: transport's ``fault.*`` counters land in the run's namespace
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._handlers: dict[int, DeliveryHandler] = {}
        self.timelines: dict[int, IntervalSeries] = {
            node: IntervalSeries(f"node{node}", cfg.timeline_interval)
            for node in topology.nodes()
        }
        self.burst16 = Histogram("burst16", BURST_EDGES)
        self.burst32 = Histogram("burst32", BURST_EDGES)
        self._burst_state: dict[tuple[int, int], list[int]] = {}
        self.messages_sent = 0
        self.data_blocks = 0
        # Fault injection and the active adversary are strictly opt-in:
        # with both sections dormant there is no perturbation layer and the
        # clean-channel paths run unchanged (bit-identical reports).  Either
        # section arms the secure channel's recovery machinery (pending
        # table, RTO timers, dedup sets).
        faults, attacks = cfg.fault.enabled, cfg.adversary.enabled
        self.perturb = LinkPerturbation(cfg, topology) if faults or attacks else None
        self.fault_stats = FaultStats() if faults else None
        self.attack_report = AttackReport() if attacks else None

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register(self, node: int, handler: DeliveryHandler) -> None:
        if node in self._handlers:
            raise ValueError(f"node {node} already registered")
        self._handlers[node] = handler

    def _deliver(self, packet: Packet, time: int) -> None:
        handler = self._handlers.get(packet.dst)
        if handler is None:
            raise KeyError(f"no delivery handler for node {packet.dst}")
        handler(packet, time)

    # ------------------------------------------------------------------
    # The hostile link
    # ------------------------------------------------------------------
    def _hostile_wire(self, packet: Packet, now: int) -> tuple:
        """Put one data-block wire copy on the hostile link and decide its fate.

        Rolls the copy's fault verdict and attack, sends it, and tallies
        what was injected.  A copy occupies link bandwidth even when it is
        dropped: the bits still crossed the wire, only the far end never
        saw them intact.  Returns ``(verdict, attack, arrival, extras)``:
        ``arrival`` is when the original reaches the far end after any
        delay spike or reorder hold, and ``extras`` lists the
        ``(copy, at, kind)`` copies the wire adds — the attacker's
        replayed, spliced or forged copy (``kind`` is its attack), then the
        link's duplicate (``kind`` None).  Launching the extras, and what
        the receiver makes of each copy, is the caller's part.
        """
        src, dst = packet.src, packet.dst
        verdict, attack = self.perturb.decide(src, dst)
        arrival = self.topology.send(packet, now)
        if verdict is not FaultVerdict.OK:
            name = _INJECTED[verdict]
            setattr(self.fault_stats, name, getattr(self.fault_stats, name) + 1)
            self._note_fault(packet, verdict.value)
        if verdict is FaultVerdict.DELAY:
            arrival += self.cfg.fault.delay_cycles
        extras = []
        if attack is not None:
            self.attack_report.note_injected(attack)
            self._note_adv(f"{attack.value}_injected")
            if attack is AttackKind.REPLAY:
                # A captured copy re-injected later, burning real bandwidth.
                extras.append((packet, arrival + self.cfg.adversary.replay_lag, attack))
            elif attack in ALIEN_KINDS:
                # A splice redirects the block onto a third node's link; a
                # forgery is fabricated beside the original, with no
                # captured material.
                target = self.perturb.splice_target(src, dst) if attack is AttackKind.SPLICE else dst
                copy = Packet(
                    kind=packet.kind,
                    src=src,
                    dst=target,
                    size_bytes=packet.size_bytes,
                    meta_bytes=packet.meta_bytes,
                )
                extras.append((copy, arrival, attack))
        if verdict is FaultVerdict.DUPLICATE:
            extras.append((packet, arrival, None))
        if attack is AttackKind.REORDER:
            # Held back so later counters overtake it on the wire; the
            # link's echo above is not held.
            arrival += self.cfg.adversary.reorder_lag
        return verdict, attack, arrival, extras

    def _send_at(self, packet: Packet, at: int, on_arrival=None) -> None:
        """Put an injected extra copy on the wire at cycle ``at``, not now.

        A channel serves packets first in, first out from one busy-until
        time, so sending now with a future start would hold the link until
        ``at`` and queue every packet sent in between behind the copy.
        """

        def launch() -> None:
            arrival = self.topology.send(packet, self.sim.now)
            if on_arrival is not None:
                self.sim.post_at(arrival, on_arrival)

        self.sim.post_at(at, launch)

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def _note_fault(self, packet: Packet, event: str) -> None:
        """Observation hook for fault/recovery events (wrapped by tracers).

        Only ever invoked under active fault injection, so a rate-0 run
        creates no ``fault.*`` metrics at all — absence of the namespace is
        the telemetry-level statement that the link stayed clean.
        """
        self.telemetry.counter(f"fault.{event.replace('-', '_')}").add()

    def _note_adv(self, event: str) -> None:
        """Observation hook for adversary/defense events.

        Only ever invoked under an active adversary, so attack-free runs
        create no ``adv.*`` metrics — mirroring the ``fault.*`` contract.
        """
        self.telemetry.counter(f"adv.{event.replace('-', '_')}").add()

    def _note_send(self, packet: Packet, now: int) -> None:
        self.messages_sent += 1
        if packet.kind in _HOUSEKEEPING:
            return
        timeline = self.timelines[packet.src]
        timeline.record(now, "send")
        timeline.record(now, f"to{packet.dst}")

    def _note_arrival(self, packet: Packet, now: int) -> None:
        if packet.kind in _HOUSEKEEPING:
            return
        self.timelines[packet.dst].record(now, "recv")
        if packet.kind.carries_data:
            self.data_blocks += 1
            self._track_burst(packet.src, packet.dst, now)

    def _track_burst(self, src: int, dst: int, now: int) -> None:
        # state: [count16, start16, count32, start32]
        state = self._burst_state.setdefault((src, dst), [0, 0, 0, 0])
        if state[0] == 0:
            state[1] = now
        state[0] += 1
        if state[0] == 16:
            self.burst16.record(now - state[1])
            state[0] = 0
        if state[2] == 0:
            state[3] = now
        state[2] += 1
        if state[2] == 32:
            self.burst32.record(now - state[3])
            state[2] = 0


class UnsecureTransport(_TransportBase):
    """The vanilla multi-GPU fabric: no pads, no metadata, no ACKs.

    Under fault injection the unsecure fabric has *no detection*: dropped
    payloads and flipped bits reach the consuming device as silently wrong
    data at zero timing cost.  The :class:`FaultStats` ledger records the
    damage (``lost_messages`` / ``corrupted_deliveries``) that the secure
    schemes' recovery machinery exists to prevent — the asymmetry
    ``experiments.fig_fault_sweep`` plots.
    """

    def send(self, packet: Packet, now: int) -> None:
        self._note_send(packet, now)
        if self.perturb is not None and packet.kind.carries_data:
            arrival = self._hostile_send(packet, now)
        else:
            arrival = self.topology.send(packet, now)
        self.sim.post_at(
            arrival, lambda p=packet: (self._note_arrival(p, self.sim.now), self._deliver(p, self.sim.now))
        )

    def _hostile_send(self, packet: Packet, now: int) -> int:
        """Send one data block over the hostile link; return its arrival.

        Deliver-but-count: the packet still reaches its handler on
        schedule (the device consumes garbage without noticing), while the
        ledgers record what actually happened on the wire.  Every
        attacker-controlled byte a device consumes lands in ``accepted`` —
        the silent-compromise count the secure schemes drive to zero; a
        reordered block is late but intact, so nothing attacker-controlled
        is consumed.  Extra copies burn link bandwidth, and the device-side
        interface absorbs them.
        """
        verdict, attack, arrival, extras = self._hostile_wire(packet, now)
        if verdict is FaultVerdict.DROP:
            self.fault_stats.lost_messages += 1
        elif verdict is FaultVerdict.CORRUPT:
            self.fault_stats.corrupted_deliveries += 1
        if attack is AttackKind.REORDER:
            self.attack_report.note_harmless(attack)
            self._note_adv("reorder_absorbed")
        elif attack is not None:
            self.attack_report.note_accepted(attack)
            self._note_adv("accepted")
        # Same-cycle event order: the link's echo launches first, then the
        # attacker's copy, and both before the original is delivered.
        for copy, at, _kind in reversed(extras):
            self._send_at(copy, at)
        return arrival


class SecureTransport(_TransportBase):
    """Authenticated-encrypted fabric with OTP buffers and metadata."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        cfg: SystemConfig,
        telemetry: Telemetry | None = None,
    ) -> None:
        super().__init__(sim, topology, cfg, telemetry)
        sec = cfg.security
        if sec.scheme == "unsecure":
            raise ValueError("SecureTransport requires a managed scheme")
        self.accountant = MetadataAccountant(sec.metadata, sec.count_metadata)
        self.engines: dict[int, AesGcmEngineModel] = {}
        self.schemes = {}
        self.guards: dict[int, ReplayGuard] = {}
        self.batchers: dict[int, BatchingController] = {}
        self.mac_storage: dict[int, MsgMacStorage] = {}
        # Under an active adversary the replay guards tolerate in-window
        # ACK reordering (held-back blocks deliver late but legitimately);
        # dormant configs keep the strict-FIFO default.
        guard_window = cfg.adversary.replay_window if cfg.adversary.enabled else 0
        for node in topology.nodes():
            engine = AesGcmEngineModel(sec.aes_gcm_latency, sec.ghash_latency, sec.xor_latency)
            self.engines[node] = engine
            self.schemes[node] = build_scheme(
                sec.scheme, node, topology.peers_of(node), sec, engine
            )
            self.guards[node] = ReplayGuard(node, window=guard_window)
            if sec.batching:
                self.batchers[node] = BatchingController(
                    sec.metadata, sec.batch_size, sec.batch_timeout
                )
                self.mac_storage[node] = MsgMacStorage(capacity_per_pair=64)
        self._ctrs: dict[tuple[int, int], int] = {}
        # Crypto units are FIFO per directed pair: a pad stall blocks the
        # messages queued behind it (head-of-line), while the XOR/GHASH
        # fast paths are fully pipelined and add latency only.
        self._send_crypto_busy: dict[tuple[int, int], int] = {}
        self._recv_crypto_busy: dict[tuple[int, int], int] = {}
        # receiver-side batch completion tracking:
        # (src, dst, batch_id) -> [blocks_arrived, expected_or_None]
        self._batch_arrivals: dict[tuple[int, int, int], list] = {}
        self.acks_sent = 0
        self.batch_macs_sent = 0
        #: secured messages that took the conventional per-message metadata
        #: path (MsgCTR+MsgMAC+senderID each) vs. the batched-block path —
        #: the split the metadata byte law in ``repro.verify`` is written in
        self.conventional_msgs = 0
        self.batched_blocks = 0
        #: when SecurityConfig.audit is set, every secured message is
        #: recorded for functional replay (repro.secure.audit)
        self.audit_log: list = [] if sec.audit else None
        # Recovery-protocol state, populated only under fault injection:
        # in-flight blocks awaiting their ACK (insertion-ordered per pair),
        # an alias from any live wire counter to the logical block it
        # carries, the receiver's already-seen counter sets (wire-replay
        # rejection), and the set of block pids already handed to a device
        # (late original vs. retransmit races deliver exactly once).
        self._pending: dict[tuple[int, int], dict[int, _PendingMessage]] = {}
        self._counter_owner: dict[tuple[int, int, int], int] = {}
        self._recv_seen: dict[tuple[int, int], set[int]] = {}
        self._delivered_pids: dict[tuple[int, int], set[int]] = {}
        # Adversary-side state: the runtime invariant sanitizer, per-pair
        # detection counts feeding quarantine, and the fabricated-counter
        # sequence forged blocks arrive under (negative: disjoint from any
        # counter a sender can ever issue).
        self.monitor = InvariantMonitor() if cfg.adversary.enabled else None
        self._adv_detections: dict[tuple[int, int], int] = {}
        self._forge_seq = 0

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def send(self, packet: Packet, now: int) -> None:
        if packet.kind in _HOUSEKEEPING:
            raise ValueError("ACK/batch-MAC packets are generated by the transport itself")
        self._note_send(packet, now)

        if not packet.kind.carries_data and not self.cfg.security.protect_requests:
            # Control messages (read requests, write acks, migration
            # requests) carry addresses, not data; the paper's protocol
            # authenticated-encrypts *data* transfers (Figs 5/19) and
            # leaves request-content hiding to oblivious routing [34].
            # ``protect_requests`` enables that extension: control messages
            # then take the full secured path below.
            arrival = self.topology.send(packet, now)
            self.sim.post_at(
                arrival,
                lambda p=packet: (self._note_arrival(p, self.sim.now), self._deliver(p, self.sim.now)),
            )
            return

        sec = self.cfg.security
        src, dst = packet.src, packet.dst
        counter, synced, ready = self._acquire_pads(packet, now)
        batch_ctx = None
        if sec.batching and self.accountant.batchable(packet.kind):
            batch_ctx = self.batchers[src].add_block(dst, now)
            meta = self.accountant.batched_block_meta(
                batch_ctx.opens_batch, batch_ctx.closes_batch
            )
            if self.perturb is not None:
                # Hostile-channel batching verifies every block eagerly, so
                # each block keeps its own MsgMAC on the wire.
                meta += self.accountant.eager_block_mac_bytes()
            self.batched_blocks += 1
            if batch_ctx.opens_batch:
                self.sim.post(
                    sec.batch_timeout,
                    lambda s=src, d=dst, b=batch_ctx.batch_id: self._batch_timeout(s, d, b),
                )
        else:
            meta = self.accountant.conventional_meta(packet)
            self.conventional_msgs += 1
        packet.size_bytes += meta
        packet.meta_bytes = meta

        if self.audit_log is not None:
            self.audit_log.append(
                AuditEntry(
                    src=src,
                    dst=dst,
                    counter=counter,
                    in_batch=batch_ctx is not None,
                    closes_batch=bool(batch_ctx and batch_ctx.closes_batch),
                    batch_size=batch_ctx.batch_size if batch_ctx else 0,
                )
            )

        launch_at = self._post_launch(packet, synced, batch_ctx, counter, ready)
        if self.perturb is not None and packet.kind.carries_data:
            # Batched blocks are ACKed at batch close, which may lag by the
            # batch timeout; the sender's RTO accounts for that known delay
            # so a slow batch is not mistaken for a lost block.
            rto = self.cfg.fault.ack_timeout
            if batch_ctx is not None:
                rto += sec.batch_timeout
            pending = _PendingMessage(packet, counter, batch_ctx, rto, launch_at)
            self._pending.setdefault((src, dst), {})[packet.pid] = pending
            self._counter_owner[(src, dst, counter)] = packet.pid

    def _acquire_pads(self, packet: Packet, now: int) -> tuple[int, bool, int]:
        """Take a send pad and a fresh counter for one wire copy of ``packet``.

        Returns ``(counter, synced, ready)``: whether the receiver's pad
        stream is in sync, and the cycle the pad is in hand.
        """
        src, dst = packet.src, packet.dst
        scheme = self.schemes[src]
        demand = packet.kind is not PacketKind.MIGRATION_DATA
        # monitoring observes the message as it enqueues, before any stall
        scheme.note_send(dst, now, demand=demand)
        # head-of-line: the pad acquisition happens when this message
        # reaches the front of the pair's crypto queue
        start = max(now, self._send_crypto_busy.get((src, dst), 0))
        send_grant = scheme.acquire_send(dst, start, demand=demand)
        ready = start + send_grant.grant.wait
        self._send_crypto_busy[(src, dst)] = ready
        counter = self._ctrs.get((src, dst), 0)
        self._ctrs[(src, dst)] = counter + 1
        if self.monitor is not None:
            self.monitor.on_counter(src, dst, counter)
            self.monitor.on_send_pad(src, dst, counter)
        return counter, send_grant.receiver_synced, ready

    def _post_launch(self, packet: Packet, synced: bool, batch_ctx, counter: int, ready: int) -> int:
        """Register the copy with the replay guard, MAC and encrypt it on the
        pipelined fast paths, and schedule its launch; returns the launch cycle."""
        src, dst = packet.src, packet.dst
        if self.accountant.needs_ack(packet.kind):
            # Batched blocks are ACKed once per batch: tag the entry so
            # the guard retires it on *that* batch's ACK, not blindly
            # from the FIFO head (conventional ACKs overtake batch ACKs
            # by design — the batch waits for its close).
            batch_id = batch_ctx.batch_id if batch_ctx is not None else None
            self.guards[src].on_send(dst, counter, batch_id=batch_id)
        engine = self.engines[src]
        engine.count_mac()
        launch_at = ready + engine.mac_fast_path + engine.encrypt_fast_path
        self.sim.post_at(
            launch_at,
            lambda p=packet, s=synced, b=batch_ctx, c=counter: self._launch(p, s, b, c),
        )
        return launch_at

    def _launch(self, packet: Packet, synced: bool, batch_ctx, counter: int) -> None:
        now = self.sim.now
        if self.perturb is None or not packet.kind.carries_data:
            arrival = self.topology.send(packet, now)
            self.sim.post_at(
                arrival,
                lambda p=packet, s=synced, b=batch_ctx, c=counter: self._arrive(p, s, b, c),
            )
            return
        # Every copy, original or retransmission, gets its own fate.  The
        # attacker holds no keys and no pads, so tampered and fabricated
        # copies are destined for a MsgMAC rejection; replays and reorders
        # re-use authentic material and meet the counter check or the ACK
        # window.
        verdict, attack, arrival, extras = self._hostile_wire(packet, now)
        src, dst = packet.src, packet.dst
        if verdict is not FaultVerdict.DROP and attack is not AttackKind.SPLICE:
            # A dropped or spliced original never reaches dst: only the
            # sender's RTO timer can notice the loss.
            own = None if attack in _COPYING else attack
            if own in TAMPER_KINDS:
                self.monitor.on_tampered_copy(src, dst, counter, packet.pid)
            corrupted = verdict is FaultVerdict.CORRUPT
            self.sim.post_at(
                arrival,
                lambda p=packet, s=synced, b=batch_ctx, c=counter, x=corrupted, a=own: self._arrive(
                    p, s, b, c, corrupted=x, attack=a
                ),
            )
        for copy, at, kind in extras:
            ctr, ctx = counter, batch_ctx
            if kind in ALIEN_KINDS:
                # Spliced and forged copies travel outside any batch, under
                # counters alien to the receiving pair; a forgery's counter
                # is negative, so no sender can ever hand it out.
                ctx = None
                if kind is AttackKind.FORGE:
                    self._forge_seq += 1
                    ctr = -self._forge_seq
                self.monitor.on_tampered_copy(copy.src, copy.dst, ctr, copy.pid)
            # Detection is charged to the wire the copy was captured on.
            self._send_at(
                copy,
                at,
                lambda p=copy, s=synced, b=ctx, c=ctr, a=kind, o=(src, dst): self._arrive(
                    p, s, b, c, attack=a, origin=o
                ),
            )
        pending = self._pending.get((src, dst), {}).get(packet.pid)
        if pending is not None:
            self._arm_timer(pending)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _arrive(
        self,
        packet: Packet,
        synced: bool,
        batch_ctx,
        counter: int,
        corrupted: bool = False,
        attack: AttackKind | None = None,
        origin: tuple[int, int] | None = None,
    ) -> None:
        now = self.sim.now
        sec = self.cfg.security
        src, dst = packet.src, packet.dst
        guarded = self.perturb is not None and packet.kind.carries_data
        if guarded:
            seen = self._recv_seen.setdefault((src, dst), set())
            if counter in seen:
                if attack is not None:
                    # The plaintext counter check rejects the attacked copy
                    # before it touches the crypto pipeline or burns a pad:
                    # a whole-block replay re-presents a consumed counter,
                    # and a spliced copy's alien counter can collide with
                    # one this pair already accepted.
                    event = (
                        "replay_discard"
                        if attack is AttackKind.REPLAY
                        else "counter_reject"
                    )
                    self._attack_detected(attack, origin or (src, dst), event)
                    return
                # Wire replay (link echo): rejected the same way.
                if self.fault_stats is not None:
                    self.fault_stats.duplicates_discarded += 1
                    self._note_fault(packet, "dup-discard")
                return
            if attack not in ALIEN_KINDS:
                seen.add(counter)
            # Tampered/alien copies burn this pair's receive pad at the
            # counter they *claim* and then die at the MsgMAC — wasted-pad
            # cost, not a security double-use, so they stay out of the
            # single-use ledger (the legitimate block under the same
            # counter still must be unique).
            if self.monitor is not None and attack not in TAMPER_KINDS:
                self.monitor.on_recv_pad(src, dst, counter)
        engine = self.engines[dst]
        demand = packet.kind is not PacketKind.MIGRATION_DATA
        self.schemes[dst].note_recv(src, now, demand=demand)
        start = max(now, self._recv_crypto_busy.get((src, dst), 0))
        recv_grant = self.schemes[dst].acquire_recv(src, start, synced=synced, demand=demand)
        self._recv_crypto_busy[(src, dst)] = start + recv_grant.wait

        # A hostile link forfeits lazy verification: batched blocks verify
        # eagerly so corruption is caught before the block leaves the NoC.
        lazy = sec.batching and self.accountant.batchable(packet.kind) and not guarded
        verify = 0 if lazy else engine.mac_fast_path
        deliver_at = start + recv_grant.wait + engine.encrypt_fast_path + verify
        if corrupted or attack in TAMPER_KINDS:
            self.sim.post_at(
                deliver_at,
                lambda p=packet, c=counter, a=attack, o=origin or (src, dst): (
                    self._mac_rejected(p, c, a, o)
                ),
            )
            return
        self.sim.post_at(
            deliver_at,
            lambda p=packet, b=batch_ctx, c=counter, a=attack: self._delivered(p, b, c, a),
        )

    def _delivered(
        self, packet: Packet, batch_ctx, counter: int, attack: AttackKind | None = None
    ) -> None:
        now = self.sim.now
        src, dst = packet.src, packet.dst
        if self.perturb is not None and packet.kind.carries_data:
            delivered = self._delivered_pids.setdefault((src, dst), set())
            if packet.pid in delivered:
                # A late original raced its own retransmit: identical
                # content, different counter.  Deliver exactly once.
                if attack is not None:
                    # The attacked copy lost the race — absorbed, no damage.
                    self.attack_report.note_harmless(attack)
                    self._note_adv(f"{attack.value}_absorbed")
                if self.fault_stats is not None:
                    self.fault_stats.spurious_retransmits += 1
                    self.fault_stats.wasted_otps += 1  # the extra receive pad
                    self._note_fault(packet, "dup-content")
                return
            delivered.add(packet.pid)
            if attack in TAMPER_KINDS:
                # Contract breach: a tampered copy reached a device.  The
                # ledger records it (the zero-undetected assertion fails)
                # and the invariant monitor flags it below.
                self.attack_report.note_accepted(attack)
                self._note_adv("accepted")
            elif attack is not None:
                # Replay/reorder copies that deliver are authentic data
                # arriving once: late (reorder) or standing in for a copy
                # a link fault destroyed (replay).
                self.attack_report.note_harmless(attack)
                self._note_adv(f"{attack.value}_absorbed")
            if self.monitor is not None:
                self.monitor.on_delivered(src, dst, counter, packet.pid)
        self._note_arrival(packet, now)

        if self.cfg.security.batching and self.accountant.batchable(packet.kind):
            self.mac_storage[dst].store(src)
            expected = batch_ctx.batch_size if batch_ctx.closes_batch else None
            self._batch_progress(src, dst, batch_ctx.batch_id, 1, expected)
        elif self.accountant.needs_ack(packet.kind):
            self._send_ack(dst, src, retire=1, counter=counter)

        self._deliver(packet, now)

    # ------------------------------------------------------------------
    # Batch completion and timeout
    # ------------------------------------------------------------------
    def _batch_progress(
        self, src: int, dst: int, batch_id: int, blocks: int, expected: int | None
    ) -> None:
        """Count ``blocks`` more arrived blocks of one batch, and its size
        once known (closing block or standalone batch MAC); verify the
        batched MAC and ACK the batch when every block is in."""
        key = (src, dst, batch_id)
        state = self._batch_arrivals.setdefault(key, [0, None])
        state[0] += blocks
        if expected is not None:
            state[1] = expected
        if state[1] is None or state[0] < state[1]:
            return
        del self._batch_arrivals[key]
        self.mac_storage[dst].release_batch(src, state[1])
        self.engines[dst].count_mac()  # the batched-MAC verification
        self._send_ack(dst, src, retire=state[1], batch_id=batch_id)

    def _batch_timeout(self, src: int, dst: int, batch_id: int) -> None:
        closed = self.batchers[src].timeout_close(dst, batch_id)
        if closed is None:
            return  # batch already filled up
        if self.audit_log is not None:
            self.audit_log.append(
                AuditEntry(
                    src=src,
                    dst=dst,
                    counter=-1,
                    in_batch=True,
                    closes_batch=True,
                    batch_size=closed,
                    timeout_close=True,
                )
            )
        self.batch_macs_sent += 1
        self._send_control(
            PacketKind.BATCH_MAC,
            src,
            dst,
            self.accountant.standalone_batch_mac_size(),
            lambda s=src, d=dst, b=batch_id, n=closed: self._batch_progress(s, d, b, 0, n),
        )

    # ------------------------------------------------------------------
    # Transport-generated packets: replay-protection ACKs, NACKs, batch MACs
    # ------------------------------------------------------------------
    def _send_control(self, kind: PacketKind, src: int, dst: int, size: int, on_arrival) -> None:
        """Send one housekeeping packet; ``on_arrival()`` runs when it lands."""
        packet = Packet(kind=kind, src=src, dst=dst, size_bytes=size)
        packet.meta_bytes = size if self.cfg.security.count_metadata else 0
        self._note_send(packet, self.sim.now)
        arrival = self.topology.send(packet, self.sim.now)
        self.sim.post_at(arrival, on_arrival)

    def _send_ack(
        self,
        from_node: int,
        to_node: int,
        retire: int,
        counter: int | None = None,
        batch_id: int | None = None,
    ) -> None:
        def retire_entries() -> None:
            # to_node is the original sender whose replay table retires entries
            self.guards[to_node].on_ack(from_node, counter, retire, batch_id=batch_id)
            self._resolve_acked(to_node, from_node, counter, retire, batch_id)

        if not self.cfg.security.count_metadata:
            # +SecureCommu mode: account the protocol without its bandwidth.
            retire_entries()
            return
        self.acks_sent += 1
        self._send_control(
            PacketKind.SEC_ACK, from_node, to_node, self.accountant.ack_packet_size(), retire_entries
        )

    def _send_nack(self, from_node: int, to_node: int, counter: int) -> None:
        if self.fault_stats is not None:
            self.fault_stats.nacks_sent += 1
        if not self.cfg.security.count_metadata:
            # +SecureCommu mode: the NACK costs no bandwidth or latency.
            self._recover(to_node, from_node, counter)
            return
        self._send_control(
            PacketKind.SEC_NACK,
            from_node,
            to_node,
            self.accountant.ack_packet_size(),
            lambda s=to_node, r=from_node, c=counter: self._recover(s, r, c),
        )

    # ------------------------------------------------------------------
    # Fault recovery: detection, NACK/timeout, retransmission
    # ------------------------------------------------------------------
    def _recovery_event(self, packet: Packet, event: str, **counts: int) -> None:
        """Record one recovery action: in :class:`FaultStats` (``counts``)
        and ``fault.*`` when the fault section is enabled, else in ``adv.*``."""
        stats = self.fault_stats
        if stats is None:
            self._note_adv(event)
            return
        for name, n in counts.items():
            setattr(stats, name, getattr(stats, name) + n)
        self._note_fault(packet, event)

    def _resolve_acked(
        self,
        sender: int,
        receiver: int,
        counter: int | None,
        retire: int,
        batch_id: int | None,
    ) -> None:
        """Settle retransmission state for blocks the receiver just ACKed."""
        if self.perturb is None:
            return
        pair = self._pending.get((sender, receiver))
        if not pair:
            return
        if batch_id is not None:
            # Batches can complete out of order under faults (a dropped
            # block stalls its batch while later ones finish), so batch
            # ACKs settle by batch id, never by queue position.
            pids = [
                pid
                for pid, p in pair.items()
                if p.batch_ctx is not None and p.batch_ctx.batch_id == batch_id
            ]
        elif counter is not None:
            pid = self._counter_owner.get((sender, receiver, counter))
            pids = [pid] if pid is not None and pid in pair else []
        else:
            pids = list(pair)[:retire]
        for pid in pids:
            self._resolve_pending(sender, receiver, pid)

    def _resolve_pending(self, sender: int, receiver: int, pid: int) -> None:
        pair = self._pending.get((sender, receiver))
        pending = pair.pop(pid, None) if pair else None
        if pending is None:
            return
        if pending.timer is not None:
            pending.timer.cancel()
            pending.timer = None
        for ctr in pending.counters:
            self._counter_owner.pop((sender, receiver, ctr), None)

    def _arm_timer(self, pending: _PendingMessage) -> None:
        if pending.timer is not None:
            pending.timer.cancel()
        src, dst = pending.packet.src, pending.packet.dst
        pending.timer = self.sim.schedule(
            pending.rto,
            lambda s=src, d=dst, pid=pending.packet.pid: self._ack_timeout(s, d, pid),
        )

    def _ack_timeout(self, src: int, dst: int, pid: int) -> None:
        pair = self._pending.get((src, dst))
        pending = pair.get(pid) if pair else None
        if pending is None:
            return  # ACK won the race; this timer was lazily cancelled
        self._recovery_event(
            pending.packet, "timeout", timeouts_fired=1, backoff_cycles=pending.rto
        )
        fault = self.cfg.fault
        pending.rto = min(int(pending.rto * fault.backoff_factor), fault.backoff_max)
        pending.timer = None
        self._retransmit(pending)

    def _mac_rejected(
        self,
        packet: Packet,
        counter: int,
        attack: AttackKind | None,
        origin: tuple[int, int],
    ) -> None:
        """MsgMAC verification rejected a corrupted, mutated or fabricated copy.

        Either way the receive pad is burned and the receiver NACKs the
        counter it saw.  ``attack`` is None for a link fault's bit flip;
        an attack also feeds the invariant monitor, the attack ledger and
        quarantine, always charged to the compromised wire ``origin`` it
        was captured on.  For spliced copies the NACK reaches a sender
        with no matching pending entry (a no-op — the *original* pair's
        RTO drives recovery), and a forged copy's fabricated counter
        matches nothing either.
        """
        stats = self.fault_stats
        if stats is not None:
            stats.wasted_otps += 1  # the receive pad burned
        if attack is None:
            stats.corruptions_detected += 1
            self._note_fault(packet, "mac-reject")
        else:
            self.monitor.on_mac_reject(packet.src, packet.dst, counter, packet.pid)
            self._attack_detected(attack, origin, "mac_reject")
        self._send_nack(packet.dst, packet.src, counter)

    # ------------------------------------------------------------------
    # Adversary detection and link quarantine
    # ------------------------------------------------------------------
    def _attack_detected(
        self, attack: AttackKind, origin: tuple[int, int], event: str
    ) -> None:
        self.attack_report.note_detected(attack)
        self._note_adv(event)
        self._register_detection(*origin)

    def _register_detection(self, src: int, dst: int) -> None:
        """Count a detection against the (src → dst) wire; maybe failover.

        Hitting ``quarantine_threshold`` detections takes the directed
        link out of service: the topology reroutes the pair over an
        alternate path and the attacker stops seeing its traffic.  When no
        alternate exists (CPU↔GPU over the single PCIe bus) the pair stays
        on the guarded direct route and detections simply keep counting.
        """
        threshold = self.cfg.adversary.quarantine_threshold
        if threshold <= 0:
            return
        key = (src, dst)
        count = self._adv_detections.get(key, 0) + 1
        self._adv_detections[key] = count
        if count == threshold and self.topology.quarantine(src, dst):
            self.attack_report.note_quarantined(src, dst)
            self._note_adv("quarantine")

    def _recover(self, sender: int, receiver: int, counter: int) -> None:
        pid = self._counter_owner.get((sender, receiver, counter))
        pair = self._pending.get((sender, receiver))
        pending = pair.get(pid) if (pair and pid is not None) else None
        if pending is None or pending.counter != counter:
            return  # stale NACK: a retransmit already superseded this copy
        self._retransmit(pending)

    def _retransmit(self, pending: _PendingMessage) -> None:
        packet = pending.packet
        src, dst = packet.src, packet.dst
        if pending.attempts > self.cfg.fault.max_retries:
            self._recovery_event(packet, "give-up", link_failures=1)
            self._resolve_pending(src, dst, packet.pid)
            stats = self.fault_stats
            raise LinkFailureError(
                src=src,
                dst=dst,
                pid=packet.pid,
                counter=pending.counter,
                attempts=pending.attempts,
                first_sent=pending.first_sent,
                gave_up_at=self.sim.now,
                fault_stats=stats.as_dict() if stats is not None else {},
            )
        pending.attempts += 1
        # wasted: the superseded copy's send pad
        self._recovery_event(packet, "retransmit", retransmits=1, wasted_otps=1)
        if pending.timer is not None:
            pending.timer.cancel()
            pending.timer = None
        # The old copy's ACK can never arrive; void its replay-guard entry
        # so the FIFO freshness check stays aligned.
        self.guards[src].retire_lost(dst, pending.counter)
        # Re-run the send tail: a retransmission is a brand-new secured
        # message — fresh pad, fresh counter, fresh MAC (a pad must never
        # encrypt two wire copies).
        counter, synced, ready = self._acquire_pads(packet, self.sim.now)
        pending.counter = counter
        pending.counters.append(counter)
        self._counter_owner[(src, dst, counter)] = packet.pid
        self._post_launch(packet, synced, pending.batch_ctx, counter, ready)

    # ------------------------------------------------------------------
    # Aggregated reporting
    # ------------------------------------------------------------------
    def run_invariant_checks(self) -> None:
        """End-of-run sanitizer pass over the whole security transcript.

        No-op without an attached monitor (adversary-free runs).  Raises
        :class:`~repro.secure.invariants.InvariantViolationError` if any
        invariant — counter monotonicity, pad single-use, tamper
        rejection, replay-window semantics, attack resolution — broke.
        """
        if self.monitor is None:
            return
        window = self.cfg.adversary.replay_window
        for guard in self.guards.values():
            self.monitor.check_guard(guard, window)
        if self.attack_report is not None:
            self.monitor.check_attack_report(self.attack_report)
        self.monitor.check()

    def otp_summary(self) -> dict[str, dict[str, float]]:
        """Fleet-wide send/recv hit-partial-miss fractions (Figs 10/22)."""
        send = {"hit": 0, "partial": 0, "miss": 0}
        recv = {"hit": 0, "partial": 0, "miss": 0}
        for scheme in self.schemes.values():
            for key, val in scheme.send_outcomes.counts.items():
                send[key] = send.get(key, 0) + val
            for key, val in scheme.recv_outcomes.counts.items():
                recv[key] = recv.get(key, 0) + val

        def fractions(counts):
            total = sum(counts.values())
            if not total:
                return {k: 0.0 for k in counts}
            return {k: v / total for k, v in counts.items()}

        return {"send": fractions(send), "recv": fractions(recv)}


def build_transport(
    sim: Simulator,
    topology: Topology,
    cfg: SystemConfig,
    telemetry: Telemetry | None = None,
):
    """Pick the transport matching ``cfg.security.scheme``."""
    if cfg.security.scheme == "unsecure":
        return UnsecureTransport(sim, topology, cfg, telemetry)
    return SecureTransport(sim, topology, cfg, telemetry)


__all__ = ["UnsecureTransport", "SecureTransport", "build_transport", "BURST_EDGES"]
