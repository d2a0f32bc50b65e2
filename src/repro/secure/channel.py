"""Transports: the unsecured fabric and the secure channel layer.

``UnsecureTransport`` moves packets straight over the topology — the
baseline every figure normalizes against.  ``SecureTransport`` applies the
full protection pipeline of Fig. 5 around the same topology:

sender:   acquire send pads (scheme) → XOR encrypt + GHASH MAC → attach
          metadata bytes (conventional or batched) → serialize on the link
receiver: acquire receive pads (scheme, honouring counter sync) → XOR
          decrypt (+ blocking MAC verify unless lazily batched) → deliver
          → emit replay-protection ACK (per message, or per batch)

Both assume a clean link.  A hostile one — link faults, an adversary, or
both — is this repository's extension and lives in
:mod:`repro.secure.hostile`, as subclasses that override a few hooks
below.  :func:`build_transport` is the one place that decides whether a
run's link is hostile.

Both transports also collect the paper's motivation measurements: per-node
send/receive timelines (Figs 13/14) and per-pair data-block burstiness
histograms (Figs 15/16).

Every secured message walks this pipeline, so the per-message path is
kept flat: the stages chain through ``functools.partial`` over bound
methods (the hostile overrides still apply), the per-kind ACK and
batching decisions are plain :class:`~repro.interconnect.packet.PacketKind`
flags, and the timeline and burst bookkeeping is done in place.
"""

from __future__ import annotations

from functools import partial

from repro.configs import SystemConfig
from repro.core.batching import BatchingController
from repro.interconnect.packet import Packet, PacketKind
from repro.interconnect.topology import Topology
from repro.obs import MetricsRegistry
from repro.secure.audit import AuditEntry
from repro.secure.metadata import MetadataAccountant
from repro.secure.replay import ReplayGuard
from repro.secure.schemes import build_scheme
from repro.sim.engine import Simulator
from repro.sim.stats import Counter, Histogram, IntervalSeries
from repro.transport import DeliveryHandler

#: Histogram bin edges of Figs 15/16.
BURST_EDGES = [40, 160, 640, 2560]


class _TransportBase:
    """Delivery registry plus the measurement instrumentation."""

    #: Set only by the hostile subclasses (:mod:`repro.secure.hostile`);
    #: the run's report reads them from every transport.
    fault_stats = attack_report = monitor = None

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        cfg: SystemConfig,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.cfg = cfg
        #: run-scoped metric sink; the owning system passes its own so the
        #: transport's ``fault.*`` counters land in the run's namespace
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._handlers: dict[int, DeliveryHandler] = {}
        self.timelines: dict[int, IntervalSeries] = {
            node: IntervalSeries(f"node{node}", cfg.timeline_interval)
            for node in topology.nodes()
        }
        self._interval = cfg.timeline_interval
        #: per-destination timeline channel names, built once
        self._to_channel = {node: f"to{node}" for node in topology.nodes()}
        self.burst16 = Histogram("burst16", BURST_EDGES)
        self.burst32 = Histogram("burst32", BURST_EDGES)
        self._burst_state: dict[tuple[int, int], list[int]] = {}
        #: ``fault.*`` counters by event name, looked up on first use
        self._fault_counters: dict[str, Counter] = {}
        self.messages_sent = 0
        self.data_blocks = 0

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

    def _deliver_at(self, packet: Packet, arrival: int) -> None:
        """Hand ``packet`` to its device when it arrives, unprocessed."""
        self.sim.post_at(arrival, partial(self._land, packet))

    def _land(self, packet: Packet) -> None:
        now = self.sim.now
        self._note_arrival(packet, now)
        self._deliver(packet, now)

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def _note_fault(self, packet: Packet, event: str) -> None:
        """Observation hook for fault/recovery events (wrapped by tracers).

        Only ever invoked under active fault injection, so a rate-0 run
        creates no ``fault.*`` metrics at all — absence of the namespace is
        the metrics-level statement that the link stayed clean.
        """
        counter = self._fault_counters.get(event)
        if counter is None:
            counter = self.metrics.counter(f"fault.{event.replace('-', '_')}")
            self._fault_counters[event] = counter
        counter.value += 1

    # The two notes below fill the IntervalSeries buckets in place: one add
    # per channel, and a channel's dict made on its first message, so a
    # channel that never saw a message stays out of the report.  They stay
    # methods: repro.tracing.MessageTracer wraps them per instance.

    def _note_send(self, packet: Packet, now: int) -> None:
        self.messages_sent += 1
        # housekeeping kinds stay out of the request timelines
        if packet.kind.housekeeping:
            return
        channels = self.timelines[packet.src]._channels
        bucket = now // self._interval
        sent = channels.get("send")
        if sent is None:
            sent = channels["send"] = {}
        sent[bucket] = sent.get(bucket, 0.0) + 1.0
        name = self._to_channel[packet.dst]
        to_dst = channels.get(name)
        if to_dst is None:
            to_dst = channels[name] = {}
        to_dst[bucket] = to_dst.get(bucket, 0.0) + 1.0

    def _note_arrival(self, packet: Packet, now: int) -> None:
        kind = packet.kind
        if kind.housekeeping:
            return
        channels = self.timelines[packet.dst]._channels
        bucket = now // self._interval
        received = channels.get("recv")
        if received is None:
            received = channels["recv"] = {}
        received[bucket] = received.get(bucket, 0.0) + 1.0
        if not kind.carries_data:
            return
        self.data_blocks += 1
        # Burstiness (Figs 15/16): the cycles each pair's next 16 and next
        # 32 data blocks take to arrive.
        # state: [count16, start16, count32, start32]
        pair = (packet.src, packet.dst)
        state = self._burst_state.get(pair)
        if state is None:
            state = self._burst_state[pair] = [0, 0, 0, 0]
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
    """The vanilla multi-GPU fabric: no pads, no metadata, no ACKs."""

    def send(self, packet: Packet, now: int) -> None:
        self._note_send(packet, now)
        self._deliver_at(packet, self.topology.send(packet, now))


class SecureTransport(_TransportBase):
    """Authenticated-encrypted fabric with OTP buffers and metadata."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        cfg: SystemConfig,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(sim, topology, cfg, metrics)
        sec = cfg.security
        if sec.scheme == "unsecure":
            raise ValueError("SecureTransport requires a managed scheme")
        self.accountant = MetadataAccountant(sec.metadata, sec.count_metadata)
        self.schemes = {}
        self.guards: dict[int, ReplayGuard] = {}
        self.batchers: dict[int, BatchingController] = {}
        for node in topology.nodes():
            self.schemes[node] = build_scheme(sec.scheme, node, topology.peers_of(node), sec)
            self.guards[node] = ReplayGuard(node)
            if sec.batching:
                self.batchers[node] = BatchingController(sec.batch_size)
        # the security settings every message reads, as plain attributes
        self._batching = sec.batching
        self._count_metadata = sec.count_metadata
        self._xor = sec.xor_latency
        self._ghash = sec.ghash_latency
        self._ack_bytes = self.accountant.ack_packet_size()
        self._ctrs: dict[tuple[int, int], int] = {}
        # Crypto units are FIFO per directed pair: a pad stall blocks the
        # messages queued behind it (head-of-line), while the XOR/GHASH
        # fast paths are fully pipelined and add latency only.
        self._send_crypto_busy: dict[tuple[int, int], int] = {}
        self._recv_crypto_busy: dict[tuple[int, int], int] = {}
        # The receiver's record of each in-flight batch, whose per-block
        # MsgMACs it holds until the batched MAC verifies (Fig. 20):
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

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def send(self, packet: Packet, now: int) -> None:
        kind = packet.kind
        if kind.housekeeping:
            raise ValueError("ACK/batch-MAC packets are generated by the transport itself")
        self._note_send(packet, now)

        if not kind.carries_data and not self.cfg.security.protect_requests:
            # Control messages (read requests, write acks, migration
            # requests) carry addresses, not data; the paper's protocol
            # authenticated-encrypts *data* transfers (Figs 5/19) and
            # leaves request-content hiding to oblivious routing [34].
            # ``protect_requests`` enables that extension: control messages
            # then take the full secured path below.
            self._deliver_at(packet, self.topology.send(packet, now))
            return

        counter, synced, ready = self._acquire_pads(packet, now)
        batch_ctx = None
        if self._batching and kind.batchable:
            src, dst = packet.src, packet.dst
            batch_ctx = self.batchers[src].add_block(dst)
            meta = self.accountant.batched_block_meta(
                batch_ctx.opens_batch, batch_ctx.closes_batch
            )
            self.batched_blocks += 1
            if batch_ctx.opens_batch:
                self.sim.post(
                    self.cfg.security.batch_timeout,
                    partial(self._batch_timeout, src, dst, batch_ctx.batch_id),
                )
        else:
            meta = self.accountant.conventional_meta()
            self.conventional_msgs += 1
        packet.size_bytes += meta
        packet.meta_bytes = meta

        if self.audit_log is not None:
            self.audit_log.append(
                AuditEntry(
                    src=packet.src,
                    dst=packet.dst,
                    counter=counter,
                    in_batch=batch_ctx is not None,
                    closes_batch=bool(batch_ctx and batch_ctx.closes_batch),
                    batch_size=batch_ctx.batch_size if batch_ctx else 0,
                )
            )

        self._post_launch(packet, synced, batch_ctx, counter, ready)

    def _acquire_pads(self, packet: Packet, now: int) -> tuple[int, bool, int]:
        """Take a send pad and a fresh counter for one wire copy of ``packet``.

        Returns ``(counter, synced, ready)``: whether the receiver's pad
        stream is in sync, and the cycle the pad is in hand.
        """
        src, dst = packet.src, packet.dst
        pair = (src, dst)
        scheme = self.schemes[src]
        note_send = scheme.note_send
        if note_send is not None:
            # monitoring observes the message as it enqueues, before any
            # stall; bulk migration blocks are not demand
            note_send(dst, now, packet.kind is not PacketKind.MIGRATION_DATA)
        # head-of-line: the pad acquisition happens when this message
        # reaches the front of the pair's crypto queue
        busy = self._send_crypto_busy.get(pair, 0)
        start = busy if busy > now else now
        wait, synced = scheme.acquire_send(dst, start)
        ready = start + wait
        self._send_crypto_busy[pair] = ready
        counter = self._ctrs.get(pair, 0)
        self._ctrs[pair] = counter + 1
        return counter, synced, ready

    def _post_launch(self, packet: Packet, synced: bool, batch_ctx, counter: int, ready: int) -> int:
        """Register the copy with the replay guard, MAC and encrypt it on the
        pipelined fast paths, and schedule its launch; returns the launch cycle."""
        if packet.kind.acked:
            # Batched blocks are ACKed once per batch: tag the entry so
            # the guard retires it on *that* batch's ACK, not blindly
            # from the FIFO head (conventional ACKs overtake batch ACKs
            # by design — the batch waits for its close).
            batch_id = batch_ctx.batch_id if batch_ctx is not None else None
            self.guards[packet.src].on_send(packet.dst, counter, batch_id)
        # with the pad in hand, MAC (one GHASH) and encrypt (one XOR), Fig. 6
        launch_at = ready + self._ghash + self._xor
        self.sim.post_at(launch_at, partial(self._launch, packet, synced, batch_ctx, counter))
        return launch_at

    def _launch(self, packet: Packet, synced: bool, batch_ctx, counter: int) -> None:
        arrival = self.topology.send(packet, self.sim.now)
        self.sim.post_at(arrival, partial(self._arrive, packet, synced, batch_ctx, counter))

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _arrive(self, packet: Packet, synced: bool, batch_ctx, counter: int) -> None:
        lazy = self._batching and packet.kind.batchable
        deliver_at = self._decrypt(packet, synced, lazy)
        self.sim.post_at(deliver_at, partial(self._delivered, packet, batch_ctx, counter))

    def _decrypt(self, packet: Packet, synced: bool, lazy: bool) -> int:
        """Take the receive pad, decrypt, and verify the MsgMAC unless
        ``lazy`` (batched blocks verify once per batch); returns the cycle
        the plaintext is ready."""
        now = self.sim.now
        src, dst = packet.src, packet.dst
        pair = (src, dst)
        scheme = self.schemes[dst]
        note_recv = scheme.note_recv
        if note_recv is not None:
            note_recv(src, now, packet.kind is not PacketKind.MIGRATION_DATA)
        busy = self._recv_crypto_busy.get(pair, 0)
        start = busy if busy > now else now
        ready = start + scheme.acquire_recv(src, start, synced)
        self._recv_crypto_busy[pair] = ready
        return ready + self._xor + (0 if lazy else self._ghash)

    def _delivered(self, packet: Packet, batch_ctx, counter: int) -> None:
        now = self.sim.now
        src, dst = packet.src, packet.dst
        self._note_arrival(packet, now)

        kind = packet.kind
        if self._batching and kind.batchable:
            expected = batch_ctx.batch_size if batch_ctx.closes_batch else None
            self._batch_progress(src, dst, batch_ctx.batch_id, 1, expected)
        elif kind.acked:
            self._send_ack(dst, src, counter)

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
        state = self._batch_arrivals.get(key)
        if state is None:
            state = self._batch_arrivals[key] = [0, None]
        state[0] += blocks
        if expected is not None:
            state[1] = expected
        if state[1] is None or state[0] < state[1]:
            return
        del self._batch_arrivals[key]
        self._send_ack(dst, src, batch_id=batch_id)

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
            partial(self._batch_progress, src, dst, batch_id, 0, closed),
        )

    # ------------------------------------------------------------------
    # Transport-generated packets: replay-protection ACKs and batch MACs
    # ------------------------------------------------------------------
    def _send_control(self, kind: PacketKind, src: int, dst: int, size: int, on_arrival) -> None:
        """Send one housekeeping packet; ``on_arrival()`` runs when it lands."""
        packet = Packet(kind, src, dst, size, size if self._count_metadata else 0)
        now = self.sim.now
        self._note_send(packet, now)
        self.sim.post_at(self.topology.send(packet, now), on_arrival)

    def _send_ack(
        self,
        from_node: int,
        to_node: int,
        counter: int | None = None,
        batch_id: int | None = None,
    ) -> None:
        """ACK one message (``counter``) or one whole batch (``batch_id``)
        back to its sender ``to_node``."""
        acked = partial(self._acked, to_node, from_node, counter, batch_id)
        if not self._count_metadata:
            # +SecureCommu mode: account the protocol without its bandwidth.
            acked()
            return
        self.acks_sent += 1
        self._send_control(PacketKind.SEC_ACK, from_node, to_node, self._ack_bytes, acked)

    def _acked(
        self, sender: int, receiver: int, counter: int | None, batch_id: int | None
    ) -> bool | list[int]:
        """The ACK reached ``sender``: its replay table retires the entries."""
        return self.guards[sender].on_ack(receiver, counter, batch_id)


def build_transport(
    sim: Simulator,
    topology: Topology,
    cfg: SystemConfig,
    metrics: MetricsRegistry | None = None,
):
    """Pick the transport for ``cfg``: ``cfg.security.scheme`` decides
    unsecure or secure, and an enabled fault or adversary section makes the
    link hostile (:mod:`repro.secure.hostile`)."""
    unsecure = cfg.security.scheme == "unsecure"
    if not (cfg.fault.enabled or cfg.adversary.enabled):
        cls = UnsecureTransport if unsecure else SecureTransport
        return cls(sim, topology, cfg, metrics)
    if cfg.security.audit:
        # The audit log records first copies only, while every
        # retransmission burns a counter the log never sees.
        raise ValueError("security.audit cannot run on a hostile link (faults or an adversary)")
    from repro.secure import hostile  # hostile.py imports this module

    cls = hostile.HostileUnsecureTransport if unsecure else hostile.HostileSecureTransport
    return cls(sim, topology, cfg, metrics)


__all__ = ["UnsecureTransport", "SecureTransport", "build_transport", "BURST_EDGES"]
