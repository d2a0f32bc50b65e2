"""Transports for a hostile link: link faults, an active adversary, or both.

:func:`~repro.secure.channel.build_transport` picks these subclasses when
the configuration enables :class:`~repro.configs.FaultConfig` or
:class:`~repro.configs.AdversaryConfig`; a clean run never builds them.
They override a few hooks of the clean transports and call ``super()`` for
the shared pipeline.

Both put every data-block wire copy through one wire step,
:meth:`_HostileLink._hostile_wire`, which decides and applies the copy's
fault and attack once.  The unsecure fabric reads its result as
deliver-but-count; the secure channel reads it as check-and-recover and
runs a detection-driven recovery protocol (see ``docs/ROBUSTNESS.md``):
corrupted blocks fail their MsgMAC and trigger a NACK, dropped blocks fire
a sender-side retransmission timer with exponential backoff, wire
duplicates are rejected by the receiver's counter check, and a retry
budget bounds how long any block keeps the link busy — exhausting it
raises a structured :class:`~repro.interconnect.faults.LinkFailureError`.
Every retransmitted block burns a fresh counter/pad, so recovery cost
feeds straight back into the OTP allocator the paper studies.

Every wire copy walks the recovery path, so it is kept as flat as the
clean channel's: stages chain through ``functools.partial`` over bound
methods, per-pair state is fetched or created without a throwaway default,
event names are built once, and the receiver's replay record is a
:class:`~repro.secure.invariants.CounterLedger` per pair, at one byte per
counter.
"""

from __future__ import annotations

from functools import partial

from repro.configs import SystemConfig
from repro.interconnect.faults import FaultVerdict, LinkFailureError
from repro.interconnect.packet import Packet, PacketKind
from repro.interconnect.topology import Topology
from repro.obs import MetricsRegistry
from repro.secure.adversary import (
    ALIEN_KINDS,
    TAMPER_KINDS,
    AttackKind,
    AttackReport,
    LinkPerturbation,
)
from repro.secure.channel import SecureTransport, UnsecureTransport
from repro.secure.invariants import CounterLedger, InvariantMonitor
from repro.sim.engine import Simulator
from repro.sim.stats import Counter, FaultStats

#: The :class:`FaultStats` counter each injected fault verdict bumps, and
#: its ``fault.*`` event name.
_INJECTED = {
    verdict: (name, verdict.value)
    for verdict, name in (
        (FaultVerdict.DROP, "drops_injected"),
        (FaultVerdict.CORRUPT, "corruptions_injected"),
        (FaultVerdict.DUPLICATE, "duplicates_injected"),
        (FaultVerdict.DELAY, "delays_injected"),
    )
}

#: ``adv.*`` event names per attack, built once.
_INJECTED_EVENT = {kind: f"{kind.value}_injected" for kind in AttackKind}
_ABSORBED_EVENT = {kind: f"{kind.value}_absorbed" for kind in AttackKind}

#: Attacks that leave the original wire copy untouched and add a copy of
#: their own; every other attack works on the original in place.
_COPYING = frozenset({AttackKind.REPLAY, AttackKind.SPLICE, AttackKind.FORGE})


class _PendingMessage:
    """Sender-side retransmission state for one in-flight data block."""

    __slots__ = ("packet", "counters", "batch_ctx", "attempts", "rto", "timer", "first_sent")

    def __init__(self, packet: Packet, counter: int, batch_ctx, rto: int, now: int) -> None:
        self.packet = packet
        #: every counter any copy used, the current copy's last; each keys
        #: this record in the sender's recovery table until the block settles
        self.counters = [counter]
        self.batch_ctx = batch_ctx
        self.attempts = 1  # transmissions so far (first copy included)
        self.rto = rto
        self.timer = None
        self.first_sent = now


class _HostileLink:
    """The perturbation layer and the one wire step both hostile
    transports share."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        cfg: SystemConfig,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(sim, topology, cfg, metrics)
        self.perturb = LinkPerturbation(cfg, topology)
        self.fault_stats = FaultStats() if cfg.fault.enabled else None
        self.attack_report = AttackReport() if cfg.adversary.enabled else None
        #: ``adv.*`` counters by event name, looked up on first use
        self._adv_counters: dict[str, Counter] = {}

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
            name, event = _INJECTED[verdict]
            setattr(self.fault_stats, name, getattr(self.fault_stats, name) + 1)
            self._note_fault(packet, event)
        if verdict is FaultVerdict.DELAY:
            arrival += self.cfg.fault.delay_cycles
        extras = []
        if attack is not None:
            self.attack_report.note_injected(attack)
            self._note_adv(_INJECTED_EVENT[attack])
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
        self.sim.post_at(at, partial(self._launch_at, packet, on_arrival))

    def _launch_at(self, packet: Packet, on_arrival) -> None:
        arrival = self.topology.send(packet, self.sim.now)
        if on_arrival is not None:
            self.sim.post_at(arrival, on_arrival)

    def _note_adv(self, event: str) -> None:
        """Observation hook for adversary/defense events.

        Only ever invoked under an active adversary, so attack-free runs
        create no ``adv.*`` metrics — mirroring the ``fault.*`` contract.
        """
        counter = self._adv_counters.get(event)
        if counter is None:
            counter = self.metrics.counter(f"adv.{event.replace('-', '_')}")
            self._adv_counters[event] = counter
        counter.value += 1


class HostileUnsecureTransport(_HostileLink, UnsecureTransport):
    """The unsecure fabric on a hostile link: it has *no detection*.

    Dropped payloads and flipped bits reach the consuming device as
    silently wrong data at zero timing cost.  The :class:`FaultStats`
    ledger records the damage (``lost_messages`` /
    ``corrupted_deliveries``) that the secure schemes' recovery machinery
    exists to prevent — the asymmetry ``experiments.fig_fault_sweep``
    plots.
    """

    def send(self, packet: Packet, now: int) -> None:
        if not packet.kind.carries_data:
            super().send(packet, now)
            return
        self._note_send(packet, now)
        self._deliver_at(packet, self._hostile_send(packet, now))

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


class HostileSecureTransport(_HostileLink, SecureTransport):
    """The secure channel on a hostile link: check every copy, and recover."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        cfg: SystemConfig,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(sim, topology, cfg, metrics)
        # Hostile-channel batching verifies every block eagerly, so each
        # block keeps its own MsgMAC on the wire.
        self.accountant.eager_block_mac = True
        if cfg.adversary.enabled:
            # The replay guards tolerate in-window ACK reordering
            # (held-back blocks deliver late but legitimately), and the
            # runtime invariant sanitizer watches the whole transcript.
            for guard in self.guards.values():
                guard.window = cfg.adversary.replay_window
            self.monitor = InvariantMonitor()
        # Recovery state: the sender's recovery table, which maps every
        # counter a copy of an un-ACKed block used to that block's record
        # (an ACK or NACK names a counter, and the ACK of a late original
        # must still settle its block), the receiver's already-seen
        # counters (wire-replay rejection; one byte per counter), and the
        # set of block pids already handed to a device (late original vs.
        # retransmit races deliver exactly once).
        self._pending: dict[tuple[int, int, int], _PendingMessage] = {}
        self._recv_seen: dict[tuple[int, int], CounterLedger] = {}
        self._delivered_pids: dict[tuple[int, int], set[int]] = {}
        # Adversary state: per-pair detection counts feeding quarantine,
        # and the fabricated-counter sequence forged blocks arrive under
        # (negative: disjoint from any counter a sender can ever issue).
        self._adv_detections: dict[tuple[int, int], int] = {}
        self._forge_seq = 0

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def _post_launch(self, packet: Packet, synced: bool, batch_ctx, counter: int, ready: int) -> int:
        """Also show the monitor the counter and send pad, and open a data
        block's recovery record with its first copy (a retransmission has
        filed its counter under the block's record already)."""
        launch_at = super()._post_launch(packet, synced, batch_ctx, counter, ready)
        src, dst = packet.src, packet.dst
        if self.monitor is not None:
            self.monitor.on_counter(src, dst, counter)
            self.monitor.on_send_pad(src, dst, counter)
        if packet.kind.carries_data:
            key = (src, dst, counter)
            if key not in self._pending:
                # Batched blocks are ACKed at batch close, which may lag by
                # the batch timeout; the sender's RTO accounts for that known
                # delay so a slow batch is not mistaken for a lost block.
                rto = self.cfg.fault.ack_timeout
                if batch_ctx is not None:
                    rto += self.cfg.security.batch_timeout
                self._pending[key] = _PendingMessage(packet, counter, batch_ctx, rto, launch_at)
        return launch_at

    def _launch(self, packet: Packet, synced: bool, batch_ctx, counter: int) -> None:
        if not packet.kind.carries_data:
            super()._launch(packet, synced, batch_ctx, counter)
            return
        # Every copy, original or retransmission, gets its own fate.  The
        # attacker holds no keys and no pads, so tampered and fabricated
        # copies are destined for a MsgMAC rejection; replays and reorders
        # re-use authentic material and meet the counter check or the ACK
        # window.
        verdict, attack, arrival, extras = self._hostile_wire(packet, self.sim.now)
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
                partial(self._arrive, packet, synced, batch_ctx, counter, corrupted, own),
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
                partial(self._arrive, copy, synced, ctx, ctr, False, kind, (src, dst)),
            )
        # The block may have settled since this copy took its pad: an ACK
        # for one of its older copies settles it.
        record = self._pending.get((src, dst, counter))
        if record is not None:
            record.timer = self.sim.schedule(record.rto, partial(self._ack_timeout, record))

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
        if not packet.kind.carries_data:
            super()._arrive(packet, synced, batch_ctx, counter)
            return
        src, dst = packet.src, packet.dst
        seen = self._recv_seen.get((src, dst))
        if seen is None:
            seen = self._recv_seen[src, dst] = CounterLedger()
        # Spliced and forged copies are checked, never marked: their
        # counters are alien to this pair (a forgery's is negative, and
        # reads as unseen), so they cannot poison later legitimate traffic.
        if attack in ALIEN_KINDS:
            replayed = counter in seen
        else:
            replayed = seen.mark(counter)
        if replayed:
            if attack is not None:
                # The plaintext counter check rejects the attacked copy
                # before it touches the crypto pipeline or burns a pad:
                # a whole-block replay re-presents a consumed counter,
                # and a spliced copy's alien counter can collide with
                # one this pair already accepted.
                event = "replay_discard" if attack is AttackKind.REPLAY else "counter_reject"
                self._attack_detected(attack, origin or (src, dst), event)
                return
            # Wire replay (link echo): rejected the same way.
            if self.fault_stats is not None:
                self.fault_stats.duplicates_discarded += 1
                self._note_fault(packet, "dup-discard")
            return
        # Tampered/alien copies burn this pair's receive pad at the
        # counter they *claim* and then die at the MsgMAC — wasted-pad
        # cost, not a security double-use, so they stay out of the
        # single-use ledger (the legitimate block under the same
        # counter still must be unique).
        if self.monitor is not None and attack not in TAMPER_KINDS:
            self.monitor.on_recv_pad(src, dst, counter)
        # A hostile link forfeits lazy verification: batched blocks verify
        # eagerly so corruption is caught before the block leaves the NoC.
        deliver_at = self._decrypt(packet, synced, False)
        if corrupted or attack in TAMPER_KINDS:
            self.sim.post_at(
                deliver_at,
                partial(self._mac_rejected, packet, counter, attack, origin or (src, dst)),
            )
            return
        self.sim.post_at(deliver_at, partial(self._delivered, packet, batch_ctx, counter, attack))

    def _delivered(
        self, packet: Packet, batch_ctx, counter: int, attack: AttackKind | None = None
    ) -> None:
        if packet.kind.carries_data:
            src, dst = packet.src, packet.dst
            delivered = self._delivered_pids.get((src, dst))
            if delivered is None:
                delivered = self._delivered_pids[src, dst] = set()
            if packet.pid in delivered:
                # A late original raced its own retransmit: identical
                # content, different counter.  Deliver exactly once.
                if attack is not None:
                    # The attacked copy lost the race — absorbed, no damage.
                    self.attack_report.note_harmless(attack)
                    self._note_adv(_ABSORBED_EVENT[attack])
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
                self._note_adv(_ABSORBED_EVENT[attack])
            if self.monitor is not None:
                self.monitor.on_delivered(src, dst, counter, packet.pid)
        super()._delivered(packet, batch_ctx, counter)

    # ------------------------------------------------------------------
    # Fault recovery: detection, NACK/timeout, retransmission
    # ------------------------------------------------------------------
    def _acked(
        self, sender: int, receiver: int, counter: int | None, batch_id: int | None
    ) -> bool | list[int]:
        """Also settle the recovery records of the blocks just ACKed: the
        block a conventional ACK's counter names, or exactly the blocks
        whose counters the guard settled for a batch (batches complete out
        of order under faults, so never by position)."""
        settled = super()._acked(sender, receiver, counter, batch_id)
        pending = self._pending
        for ctr in (counter,) if batch_id is None else settled:
            record = pending.get((sender, receiver, ctr))
            if record is not None:
                self._resolve_pending(record)
        return settled

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
            self._ack_bytes,
            partial(self._recover, to_node, from_node, counter),
        )

    def _resolve_pending(self, record: _PendingMessage) -> None:
        """Settle one block: cancel its timer and drop every counter its
        copies used from the recovery table."""
        if record.timer is not None:
            record.timer.cancel()
            record.timer = None
        src, dst = record.packet.src, record.packet.dst
        for ctr in record.counters:
            del self._pending[src, dst, ctr]

    def _ack_timeout(self, record: _PendingMessage) -> None:
        # Settling a block cancels its timer, so the block is still pending.
        # A recovery action lands in FaultStats and ``fault.*`` when the
        # fault section is enabled, else in ``adv.*``.
        stats = self.fault_stats
        if stats is None:
            self._note_adv("timeout")
        else:
            stats.timeouts_fired += 1
            stats.backoff_cycles += record.rto
            self._note_fault(record.packet, "timeout")
        fault = self.cfg.fault
        record.rto = min(int(record.rto * fault.backoff_factor), fault.backoff_max)
        record.timer = None
        self._retransmit(record)

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
        record = self._pending.get((sender, receiver, counter))
        if record is None or record.counters[-1] != counter:
            return  # stale NACK: a retransmit already superseded this copy
        self._retransmit(record)

    def _retransmit(self, record: _PendingMessage) -> None:
        packet = record.packet
        src, dst = packet.src, packet.dst
        stats = self.fault_stats
        if record.attempts > self.cfg.fault.max_retries:
            if stats is None:
                self._note_adv("give-up")
            else:
                stats.link_failures += 1
                self._note_fault(packet, "give-up")
            self._resolve_pending(record)
            raise LinkFailureError(
                src=src,
                dst=dst,
                pid=packet.pid,
                counter=record.counters[-1],
                attempts=record.attempts,
                first_sent=record.first_sent,
                gave_up_at=self.sim.now,
                fault_stats=stats.as_dict() if stats is not None else {},
            )
        record.attempts += 1
        if stats is None:
            self._note_adv("retransmit")
        else:
            stats.retransmits += 1
            stats.wasted_otps += 1  # the superseded copy's send pad
            self._note_fault(packet, "retransmit")
        if record.timer is not None:
            record.timer.cancel()
            record.timer = None
        # The old copy is presumed lost: void its replay-guard entry, so the
        # guard awaits only the new copy's ACK.
        batch_ctx = record.batch_ctx
        batch_id = batch_ctx.batch_id if batch_ctx is not None else None
        self.guards[src].retire_lost(dst, record.counters[-1], batch_id)
        # Re-run the send tail: a retransmission is a brand-new secured
        # message — fresh pad, fresh counter, fresh MAC (a pad must never
        # encrypt two wire copies).  Its counter joins the block's record
        # before _post_launch, which then opens no new one.
        counter, synced, ready = self._acquire_pads(packet, self.sim.now)
        record.counters.append(counter)
        self._pending[src, dst, counter] = record
        self._post_launch(packet, synced, batch_ctx, counter, ready)

    # ------------------------------------------------------------------
    # Aggregated reporting
    # ------------------------------------------------------------------
    def run_invariant_checks(self) -> None:
        """End-of-run sanitizer pass over the whole security transcript.

        Needs the monitor, which only adversary runs attach.  Raises
        :class:`~repro.secure.invariants.InvariantViolationError` if any
        invariant — counter monotonicity, pad single-use, tamper
        rejection, replay-window semantics, attack resolution — broke.
        """
        window = self.cfg.adversary.replay_window
        for guard in self.guards.values():
            self.monitor.check_guard(guard, window)
        self.monitor.check_attack_report(self.attack_report)
        self.monitor.check()


__all__ = ["HostileSecureTransport", "HostileUnsecureTransport"]
