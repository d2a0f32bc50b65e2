"""Property-based tests (hypothesis) on core data structures.

These pin the invariants the simulator's correctness rests on: pad-stream
wait bounds, allocator pool conservation, cache/TLB capacity limits, link
FIFO monotonicity, batching byte accounting, EWMA convexity, the replay
guard's agreement with a reference model, and the functional crypto
round-trip.
"""

from collections import deque
from itertools import islice
from math import ceil

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.configs import MetadataConfig
from repro.core.batching import BatchingController
from repro.core.dynamic_allocator import DynamicOtpAllocator, largest_remainder
from repro.core.ewma import Ewma
from repro.crypto.counter_mode import PadGenerator
from repro.crypto.gcm import AESGCM
from repro.gpu.cache import SetAssociativeCache
from repro.interconnect.link import Channel
from repro.interconnect.packet import Packet, PacketKind
from repro.secure.metadata import MetadataAccountant
from repro.secure.otp_buffer import PadStream
from repro.secure.replay import ReplayGuard


# ---------------------------------------------------------------------------
# PadStream
# ---------------------------------------------------------------------------
@given(
    latency=st.integers(1, 100),
    capacity=st.integers(0, 16),
    gaps=st.lists(st.integers(0, 200), min_size=1, max_size=60),
)
def test_pad_wait_never_exceeds_latency(latency, capacity, gaps):
    """A fully pipelined engine bounds every wait by one generation."""
    stream = PadStream(latency, capacity)
    now = 0
    for gap in gaps:
        now += gap
        assert 0 <= stream.consume(now) <= latency


@given(
    latency=st.integers(1, 60),
    capacity=st.integers(1, 8),
    ops=st.lists(st.integers(-3, 5), min_size=1, max_size=30),
)
def test_pad_capacity_tracks_grow_shrink(latency, capacity, ops):
    stream = PadStream(latency, capacity)
    expected = capacity
    now = 0
    for op in ops:
        now += 10
        if op >= 0:
            stream.grow(now, op)
            expected += op
        else:
            removed = stream.shrink(-op)
            expected -= removed
        assert stream.capacity == expected
        assert stream.capacity >= 0


@given(
    latency=st.integers(1, 60),
    spacing=st.integers(0, 200),
    n=st.integers(1, 40),
)
def test_pads_spaced_beyond_latency_always_hit(latency, spacing, n):
    stream = PadStream(latency, capacity=1)
    if spacing < latency:
        return  # property only claimed for spaced traffic
    for i in range(n):
        assert stream.consume(i * spacing) == 0


# ---------------------------------------------------------------------------
# Dynamic allocator
# ---------------------------------------------------------------------------
@given(
    total=st.integers(0, 200),
    weights=st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=10),
)
def test_largest_remainder_conserves_total(total, weights):
    shares = largest_remainder(total, weights)
    assert sum(shares) == total
    assert all(s >= 0 for s in shares)


@given(
    pool=st.integers(8, 128),
    events=st.lists(
        st.tuples(st.sampled_from(["s", "r"]), st.integers(0, 3), st.integers(1, 50)),
        min_size=1,
        max_size=20,
    ),
)
@settings(max_examples=50)
def test_allocator_plans_always_cover_pool(pool, events):
    peers = [0, 2, 3, 4]
    alloc = DynamicOtpAllocator(peers, total_pool=pool, min_samples=1)
    for direction, peer_idx, count in events:
        for _ in range(count):
            if direction == "s":
                alloc.record_send(peers[peer_idx])
            else:
                alloc.record_recv(peers[peer_idx])
        plan = alloc.adjust()
        plan.validate(pool)
        floor = alloc.min_per_stream
        assert all(v >= floor for v in plan.send_per_peer.values())
        assert all(v >= floor for v in plan.recv_per_peer.values())


@given(rate=st.floats(0.01, 1.0), samples=st.lists(st.floats(0, 1), min_size=1, max_size=50))
def test_ewma_stays_within_sample_hull(rate, samples):
    e = Ewma(rate, initial=samples[0])
    lo, hi = samples[0], samples[0]
    for s in samples:
        e.update(s)
        lo, hi = min(lo, s), max(hi, s)
        assert lo - 1e-9 <= e.value <= hi + 1e-9


# ---------------------------------------------------------------------------
# Batching accounting
# ---------------------------------------------------------------------------
@given(
    batch_size=st.integers(1, 64),
    n_blocks=st.integers(1, 200),
)
def test_batched_meta_never_exceeds_conventional(batch_size, n_blocks):
    md = MetadataConfig()
    accountant = MetadataAccountant(md)
    controller = BatchingController(batch_size=batch_size)
    grants = [controller.add_block(peer=2) for _ in range(n_blocks)]
    total = sum(accountant.batched_block_meta(g.opens_batch, g.closes_batch) for g in grants)
    conventional = n_blocks * md.per_message_meta_bytes
    # batching can only save wire bytes (equality possible for size-1 batches
    # minus the length byte overhead)
    assert total <= conventional + n_blocks * md.batch_len_bytes


@given(batch_size=st.integers(2, 32), n_blocks=st.integers(1, 100))
def test_batch_close_counting(batch_size, n_blocks):
    controller = BatchingController(batch_size=batch_size)
    closes = sum(
        1 for _ in range(n_blocks) if controller.add_block(2).closes_batch
    )
    assert closes == n_blocks // batch_size


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------
@given(
    addresses=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=200),
)
def test_cache_occupancy_never_exceeds_geometry(addresses):
    cache = SetAssociativeCache("t", size_bytes=1024, assoc=2)  # 16 lines
    resident = set()  # line addresses, kept from fill's own returns
    for addr in addresses:
        if not cache.lookup(addr):
            victim = cache.fill(addr)
            if victim is not None:
                assert victim in resident
                resident.remove(victim)
            resident.add(addr - addr % 64)
    assert len(resident) <= 16
    assert all(cache.lookup(line) for line in resident)


@given(addresses=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=100))
def test_cache_fill_then_immediate_lookup_hits(addresses):
    cache = SetAssociativeCache("t", size_bytes=4096, assoc=4)
    for addr in addresses:
        cache.fill(addr)
        assert cache.lookup(addr)


# ---------------------------------------------------------------------------
# Link channel
# ---------------------------------------------------------------------------
@given(
    sizes=st.lists(st.integers(1, 4096), min_size=1, max_size=50),
    gaps=st.lists(st.integers(0, 100), min_size=1, max_size=50),
)
def test_channel_arrivals_are_fifo_monotonic(sizes, gaps):
    channel = Channel("c", bytes_per_cycle=32.0, latency=10)
    now = 0
    last_arrival = 0
    busy_cycles = 0
    for size, gap in zip(sizes, gaps):
        now += gap
        packet = Packet(kind=PacketKind.DATA_RESP, src=1, dst=2, size_bytes=size)
        arrival = channel.send(packet, now)
        assert arrival >= last_arrival  # FIFO: no reordering
        assert arrival >= now + 10  # at least the wire latency
        last_arrival = arrival
        busy_cycles += max(1, ceil(size / 32))
    assert channel.busy_until >= busy_cycles  # every byte held the wire


# ---------------------------------------------------------------------------
# Replay guard
# ---------------------------------------------------------------------------
@given(n=st.integers(1, 100), retire_chunks=st.lists(st.integers(1, 10), max_size=20))
def test_replay_guard_conservation(n, retire_chunks):
    guard = ReplayGuard(1)
    for c in range(n):
        guard.on_send(2, c)
    retired = 0
    for chunk in retire_chunks:
        if retired + chunk > n:
            break
        assert all(guard.on_ack(2, counter=c) for c in range(retired, retired + chunk))
        retired += chunk
    assert guard.outstanding(2) == n - retired
    assert guard.acked == retired


class _MixedQueueGuard:
    """Reference model: the replay guard for one peer as a single mixed
    queue, its earlier design.  Batch-tagged and conventional counters
    share the queue; a conventional ACK's depth counts only the untagged
    entries ahead of it, and a batch ACK filters its members out of the
    queue."""

    def __init__(self, window: int) -> None:
        self.window = window
        self.queue: deque[int] = deque()
        self.members: dict[int, list[int]] = {}  # batch id -> counters
        self.tagged: set[int] = set()
        self.sent = self.acked = self.violations = self.dropped = 0
        self.max_reorder_depth = 0

    def on_send(self, counter, batch_id):
        self.queue.append(counter)
        self.sent += 1
        if batch_id is not None:
            self.members.setdefault(batch_id, []).append(counter)
            self.tagged.add(counter)

    def ack_batch(self, batch_id):
        members = set(self.members.pop(batch_id, ()))
        retained = [c for c in self.queue if c not in members]
        removed = len(self.queue) - len(retained)
        self.tagged -= members
        if removed == 0:  # unknown, repeated, or every member voided
            self.violations += 1
            return False
        self.queue = deque(retained)
        self.acked += removed
        return True

    def ack(self, counter):
        if counter not in self.queue:
            self.violations += 1
            return False
        pos = self.queue.index(counter)
        depth = sum(1 for c in islice(self.queue, pos) if c not in self.tagged)
        self.acked += 1
        if depth < max(self.window, 1):
            del self.queue[pos]
            self.max_reorder_depth = max(self.max_reorder_depth, depth)
            return True
        # resync: the untagged entries ahead are lost, tagged ones stay
        self.violations += 1
        self.dropped += depth
        ahead = [c for c in islice(self.queue, pos) if c in self.tagged]
        self.queue = deque(ahead + list(islice(self.queue, pos + 1, None)))
        return False

    def retire_lost(self, counter):
        if counter not in self.queue:
            return False
        self.queue.remove(counter)
        self.tagged.discard(counter)
        self.dropped += 1
        return True


GUARD_OPS = ("send", "send_batched", "ack", "ack_batch", "retire_lost")


@given(
    window=st.integers(0, 4),
    ops=st.lists(
        st.tuples(st.sampled_from(GUARD_OPS), st.integers(0, 9), st.integers(0, 4)),
        min_size=20,
        max_size=80,
    ),
)
@settings(max_examples=200)
def test_replay_guard_matches_the_mixed_queue_reference(window, ops):
    """The guard's two records (a conventional FIFO and one list per batch)
    answer every call exactly as the earlier mixed queue did, as long as a
    conventional ACK never names a batched counter — which the channel
    guarantees, since sender and receiver make the same batched-or-not
    decision.  Batch ids 0-3 are used by sends; 4 never is."""
    guard, reference = ReplayGuard(1, window=window), _MixedQueueGuard(window)
    batch_of: dict[int, int | None] = {}  # every counter sent -> its batch id
    for op, pick, batch in ops:
        fresh = len(batch_of)
        if op in ("send", "send_batched"):
            batch_id = batch % 4 if op == "send_batched" else None
            got = guard.on_send(2, fresh, batch_id)
            want = reference.on_send(fresh, batch_id)
            batch_of[fresh] = batch_id
        elif op == "ack":
            # an outstanding conventional counter at depth `pick`, any sent
            # conventional counter (outstanding, ACKed or voided), or an unsent one
            live = [c for c in reference.queue if c not in reference.tagged]
            conventional = [c for c, b in batch_of.items() if b is None]
            if live and pick < 5:
                counter = live[pick % len(live)]
            elif conventional and pick < 8:
                counter = conventional[pick % len(conventional)]
            else:
                counter = fresh + pick
            got, want = guard.on_ack(2, counter=counter), reference.ack(counter)
        elif op == "ack_batch":
            # live, repeated or unknown batch id
            got, want = guard.on_ack(2, batch_id=batch), reference.ack_batch(batch)
        else:
            counter = pick % fresh if fresh and pick < 8 else fresh + pick
            got = guard.retire_lost(2, counter, batch_of.get(counter))
            want = reference.retire_lost(counter)
        assert bool(got) == bool(want)
        assert (
            guard.sent,
            guard.acked,
            guard.violations,
            guard.dropped,
            guard.max_reorder_depth,
            guard.outstanding(),
        ) == (
            reference.sent,
            reference.acked,
            reference.violations,
            reference.dropped,
            reference.max_reorder_depth,
            len(reference.queue),
        )
    assert guard.outstanding(2) == guard.outstanding()


# ---------------------------------------------------------------------------
# Functional crypto round trips
# ---------------------------------------------------------------------------
@given(payload=st.binary(min_size=0, max_size=64), counter=st.integers(0, 1 << 32))
@settings(max_examples=25, deadline=None)
def test_pad_round_trip_property(payload, counter):
    pad = PadGenerator(bytes(16)).generate(counter, 1, 2)
    assert pad.decrypt(pad.encrypt(payload)) == payload


@given(plaintext=st.binary(min_size=0, max_size=96), aad=st.binary(max_size=32))
@settings(max_examples=15, deadline=None)
def test_gcm_round_trip_property(plaintext, aad):
    gcm = AESGCM(bytes(range(16)))
    ciphertext, tag = gcm.encrypt(b"twelve-bytes", plaintext, aad)
    assert gcm.decrypt(b"twelve-bytes", ciphertext, tag, aad) == plaintext
