"""The hostile link: seeded fault and attack injection on wire traffic.

Random link faults (:class:`~repro.configs.FaultConfig`) shake the channel;
an in-fabric adversary (:class:`~repro.configs.AdversaryConfig`) *attacks*
it.  One :class:`LinkPerturbation` sits on the delivery path of both
transports and, per data-block wire copy, decides both: the fault verdict
(deliver intact, drop, bit-corrupt, duplicate, or delay-spike) and one of
seven attacks — ciphertext bit-flip, MAC bit-flip, whole-block replay,
counter-window reorder, truncation, cross-link splice, and
forge-from-scratch.

The attacker is *link-local*: it owns one (or more) directed wires and can
capture, mutate, re-inject, redirect, and fabricate traffic on them, but
it holds no keys and no pads — every mutated or fabricated block fails the
receiver's MsgMAC.  That asymmetry is the whole experiment: the secure
schemes turn all seven attacks into detections (and recover via the ARQ
machinery), while the unsecure fabric consumes attacker-controlled bytes
silently.  :class:`AttackReport` keeps the per-attack ledger the
zero-undetected contract is asserted against.

Determinism is load-bearing: the sweep runner promises bit-identical
reports across serial / parallel / cached execution, so each directed pair
owns two ``random.Random`` streams, seeded from ``(config seed, src,
dst)`` — one for faults, one for attacks — rolled once per wire copy in
transmission order.  Verdicts never depend on cross-pair interleaving.

A quarantined pair (see :meth:`~repro.interconnect.topology.Topology.
quarantine`) has been rerouted off the attacker's wire: its attack stream
is no longer rolled, which keeps the surviving pairs' streams aligned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

from repro.configs import SystemConfig
from repro.interconnect.faults import FaultVerdict
from repro.interconnect.topology import Topology


class AttackKind(Enum):
    """One attacker action against a single wire copy."""

    FLIP_CIPHER = "flip_cipher"  # ciphertext bit-flip
    FLIP_MAC = "flip_mac"  # MAC-tag bit-flip
    REPLAY = "replay"  # exact re-injection of a captured block
    REORDER = "reorder"  # held back so later counters overtake
    TRUNCATE = "truncate"  # block cut short on the wire
    SPLICE = "splice"  # redirected onto another directed link
    FORGE = "forge"  # fabricated from scratch, no captured material

    # Identity hashing, as for PacketKind: members are singletons, and it
    # runs in C instead of Enum's Python-level ``hash(self._name_)``.  The
    # kind sets below are only tested for membership, never iterated, so
    # set order cannot leak into a report.
    __hash__ = object.__hash__


#: Attacks that mutate the authenticated material of an existing block —
#: a secure receiver must reject every one of them at MsgMAC verification.
TAMPER_KINDS = frozenset(
    {AttackKind.FLIP_CIPHER, AttackKind.FLIP_MAC, AttackKind.TRUNCATE,
     AttackKind.SPLICE, AttackKind.FORGE}
)

#: Attack kinds whose injected copy carries a counter the receiver may
#: legitimately see again (alien or fabricated) — never added to the
#: receiver's seen-set, so they cannot poison later legitimate traffic.
ALIEN_KINDS = frozenset({AttackKind.SPLICE, AttackKind.FORGE})

_KIND_RATES = {
    AttackKind.FLIP_CIPHER: "flip_cipher_rate",
    AttackKind.FLIP_MAC: "flip_mac_rate",
    AttackKind.REPLAY: "replay_rate",
    AttackKind.REORDER: "reorder_rate",
    AttackKind.TRUNCATE: "truncate_rate",
    AttackKind.SPLICE: "splice_rate",
    AttackKind.FORGE: "forge_rate",
}

_FAULT_RATES = {
    FaultVerdict.DROP: "drop_rate",
    FaultVerdict.CORRUPT: "corrupt_rate",
    FaultVerdict.DUPLICATE: "duplicate_rate",
    FaultVerdict.DELAY: "delay_rate",
}


def _pick(roll: float, table: tuple, default):
    """The outcome whose slice of [0, 1) the roll lands in (in table order)."""
    for outcome, rate in table:
        if roll < rate:
            return outcome
        roll -= rate
    return default


class LinkPerturbation:
    """Seeded per-pair fault and attack verdicts for every data-block wire copy.

    The transports build one only when the config's fault or adversary
    section is enabled; a dormant section is never rolled.
    """

    __slots__ = ("_faults", "_attacks", "_fault_seed", "_adv_seed", "_topology", "_nodes", "_rngs")

    def __init__(self, cfg: SystemConfig, topology: Topology) -> None:
        fault, adv = cfg.fault, cfg.adversary
        self._faults = (
            tuple((v, getattr(fault, rate)) for v, rate in _FAULT_RATES.items())
            if fault.enabled
            else None
        )
        self._attacks = (
            tuple((kind, getattr(adv, rate)) for kind, rate in _KIND_RATES.items())
            if adv.enabled
            else None
        )
        self._fault_seed = fault.seed
        self._adv_seed = adv.seed
        self._topology = topology
        self._nodes = topology.nodes()
        self._rngs: dict[tuple[int, int], tuple[random.Random, random.Random]] = {}

    def _streams(self, src: int, dst: int) -> tuple[random.Random, random.Random]:
        key = (src, dst)
        rngs = self._rngs.get(key)
        if rngs is None:
            # String seeding hashes through SHA-512: stable across processes
            # and Python versions, unlike builtin hash() of tuples.
            rngs = (
                random.Random(f"fault:{self._fault_seed}:{src}->{dst}"),
                random.Random(f"adv:{self._adv_seed}:{src}->{dst}"),
            )
            self._rngs[key] = rngs
        return rngs

    def decide(self, src: int, dst: int) -> tuple[FaultVerdict, AttackKind | None]:
        """Roll the fate of one (src -> dst) wire copy: (fault, attack).

        The fault stream rolls first, then the attack stream — unless the
        pair is quarantined: its traffic left the compromised wire, so the
        attacker cannot even observe it, and skipping the roll (rather than
        discarding it) keeps the stream a pure function of the pair's
        pre-quarantine transmission count.  A DROP or CORRUPT verdict
        destroys the copy before the attacker can touch it: the attack
        stream still advances, but no attack is returned.
        """
        fault_rng, adv_rng = self._streams(src, dst)
        verdict = FaultVerdict.OK
        if self._faults is not None:
            verdict = _pick(fault_rng.random(), self._faults, FaultVerdict.OK)
        if self._attacks is None or self._topology.is_quarantined(src, dst):
            return verdict, None
        attack = _pick(adv_rng.random(), self._attacks, None)
        if verdict is FaultVerdict.DROP or verdict is FaultVerdict.CORRUPT:
            return verdict, None
        if attack is AttackKind.SPLICE and self.splice_target(src, dst) is None:
            # Nowhere to redirect (two-node fabric): the capture degrades
            # to in-place tampering.
            return verdict, AttackKind.FLIP_CIPHER
        return verdict, attack

    def splice_target(self, src: int, dst: int) -> int | None:
        """Deterministic third node a spliced (src -> dst) block lands on."""
        for node in self._nodes:
            if node != src and node != dst:
                return node
        return None


@dataclass
class AttackReport:
    """Per-attack ledger: what the adversary did and what became of it.

    Every injected attack is eventually resolved into exactly one bucket:

    * ``detected`` — the secure machinery caught it (MsgMAC reject,
      counter replay check) and, where applicable, recovered,
    * ``harmless`` — the attack fired but the system absorbed it without
      a detection being *needed* (a reordered block that still delivered
      exactly once, a replay whose original was already lost to a fault),
    * ``accepted`` — attacker-influenced data reached a consuming device
      unnoticed.  This is the silent-compromise count: the zero-undetected
      contract asserts it stays 0 on every secure scheme, and the unsecure
      fabric's nonzero count is the asymmetry being measured.
    """

    injected: dict[str, int] = field(default_factory=dict)
    detected: dict[str, int] = field(default_factory=dict)
    harmless: dict[str, int] = field(default_factory=dict)
    accepted: dict[str, int] = field(default_factory=dict)
    #: directed links quarantined after repeated detections
    quarantined: list[list[int]] = field(default_factory=list)

    @staticmethod
    def _bump(ledger: dict[str, int], kind: "AttackKind | str") -> None:
        key = kind.value if isinstance(kind, AttackKind) else str(kind)
        ledger[key] = ledger.get(key, 0) + 1

    def note_injected(self, kind: AttackKind | str) -> None:
        self._bump(self.injected, kind)

    def note_detected(self, kind: AttackKind | str) -> None:
        self._bump(self.detected, kind)

    def note_harmless(self, kind: AttackKind | str) -> None:
        self._bump(self.harmless, kind)

    def note_accepted(self, kind: AttackKind | str) -> None:
        self._bump(self.accepted, kind)

    def note_quarantined(self, src: int, dst: int) -> None:
        self.quarantined.append([src, dst])

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def total_detected(self) -> int:
        return sum(self.detected.values())

    @property
    def total_harmless(self) -> int:
        return sum(self.harmless.values())

    @property
    def accepted_undetected(self) -> int:
        """Attacks that reached a device without anyone noticing."""
        return sum(self.accepted.values())

    @property
    def unresolved(self) -> int:
        """Injected attacks not yet settled into any outcome bucket.

        Nonzero after a completed run would mean an attack's outcome event
        never fired — the invariant monitor treats that as a violation.
        """
        return (
            self.total_injected
            - self.total_detected
            - self.total_harmless
            - self.accepted_undetected
        )

    def as_dict(self) -> dict:
        return {
            "injected": dict(sorted(self.injected.items())),
            "detected": dict(sorted(self.detected.items())),
            "harmless": dict(sorted(self.harmless.items())),
            "accepted": dict(sorted(self.accepted.items())),
            "quarantined": [list(pair) for pair in self.quarantined],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AttackReport":
        return cls(
            injected=dict(data.get("injected", {})),
            detected=dict(data.get("detected", {})),
            harmless=dict(data.get("harmless", {})),
            accepted=dict(data.get("accepted", {})),
            quarantined=[list(pair) for pair in data.get("quarantined", [])],
        )

    def merge(self, other: "AttackReport") -> None:
        for mine, theirs in (
            (self.injected, other.injected),
            (self.detected, other.detected),
            (self.harmless, other.harmless),
            (self.accepted, other.accepted),
        ):
            for key, val in theirs.items():
                mine[key] = mine.get(key, 0) + val
        self.quarantined.extend(list(pair) for pair in other.quarantined)


__all__ = [
    "AttackKind",
    "AttackReport",
    "LinkPerturbation",
    "TAMPER_KINDS",
    "ALIEN_KINDS",
]
