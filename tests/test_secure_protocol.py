"""Functional protocol tests: real pads, MACs, replay and batch checks."""

import pytest

from repro.secure.protocol import ProtocolError, SecureEndpoint

KEY = bytes(range(16))
HKEY = bytes(range(16, 32))


def make_pair():
    return SecureEndpoint(1, KEY, HKEY), SecureEndpoint(2, KEY, HKEY)


class TestPointToPoint:
    def test_round_trip(self):
        a, b = make_pair()
        wire = a.send_block(2, b"hello gpu 2, here is a cache block")
        assert wire.ciphertext != b"hello gpu 2, here is a cache block"
        assert b.receive_block(wire) == b"hello gpu 2, here is a cache block"

    def test_counters_advance_per_receiver(self):
        a, _ = make_pair()
        w1 = a.send_block(2, b"x")
        w2 = a.send_block(2, b"y")
        w3 = a.send_block(3, b"z")
        assert (w1.counter, w2.counter, w3.counter) == (0, 1, 0)

    def test_tampered_ciphertext_rejected(self):
        a, b = make_pair()
        wire = a.send_block(2, b"payload")
        forged = type(wire)(
            wire.sender_id,
            wire.receiver_id,
            wire.counter,
            bytes([wire.ciphertext[0] ^ 1]) + wire.ciphertext[1:],
            wire.mac,
        )
        with pytest.raises(ProtocolError):
            b.receive_block(forged)

    def test_replay_rejected(self):
        a, b = make_pair()
        wire = a.send_block(2, b"secret")
        b.receive_block(wire)
        with pytest.raises(ProtocolError):
            b.receive_block(wire)

    def test_wrong_receiver_rejected(self):
        a, b = make_pair()
        wire = a.send_block(3, b"for node 3")
        with pytest.raises(ProtocolError):
            b.receive_block(wire)

    def test_oversized_payload_rejected(self):
        a, _ = make_pair()
        with pytest.raises(ValueError):
            a.send_block(2, bytes(65))

    def test_different_keys_cannot_decrypt(self):
        a = SecureEndpoint(1, KEY, HKEY)
        eve = SecureEndpoint(2, bytes(16), HKEY)
        wire = a.send_block(2, b"confidential")
        with pytest.raises(ProtocolError):
            eve.receive_block(wire)  # MAC check fails under the wrong key


class TestBatchedProtocol:
    def test_batch_round_trip(self):
        a, b = make_pair()
        payloads = [bytes([i]) * 32 for i in range(16)]
        wires = [a.send_block(2, p, in_batch=True) for p in payloads]
        assert all(w.mac is None for w in wires)
        received = [b.receive_block(w) for w in wires]
        assert received == payloads  # lazy: data usable before verification
        batch = a.close_batch(2)
        assert batch.count == 16
        assert b.verify_batch(batch)
        assert b.stored_macs(1) == 0

    def test_out_of_order_blocks_verify(self):
        a, b = make_pair()
        wires = [a.send_block(2, bytes([i]) * 8, in_batch=True) for i in range(4)]
        for w in (wires[2], wires[0], wires[3], wires[1]):
            b.receive_block(w)
        assert b.verify_batch(a.close_batch(2))

    def test_tampered_batch_member_fails_batch_mac(self):
        a, b = make_pair()
        wires = [a.send_block(2, bytes([i]) * 8, in_batch=True) for i in range(4)]
        bad = type(wires[1])(
            wires[1].sender_id,
            wires[1].receiver_id,
            wires[1].counter,
            bytes([wires[1].ciphertext[0] ^ 0xFF]) + wires[1].ciphertext[1:],
            None,
        )
        for w in (wires[0], bad, wires[2], wires[3]):
            b.receive_block(w)
        assert not b.verify_batch(a.close_batch(2))

    def test_verify_before_all_blocks_raises(self):
        a, b = make_pair()
        wires = [a.send_block(2, b"x", in_batch=True) for _ in range(3)]
        b.receive_block(wires[0])
        with pytest.raises(ProtocolError):
            b.verify_batch(a.close_batch(2))

    def test_close_empty_batch_raises(self):
        a, _ = make_pair()
        with pytest.raises(ProtocolError):
            a.close_batch(2)

    def test_storage_occupancy_tracks_open_batch(self):
        a, b = make_pair()
        for i in range(5):
            b.receive_block(a.send_block(2, bytes([i]), in_batch=True))
        assert b.stored_macs(1) == 5


class TestBidirectionalBatches:
    def test_send_and_recv_mac_stores_are_separate(self):
        """Regression: A<->B batched traffic must not collide in storage."""
        a = SecureEndpoint(1, bytes(16), bytes(range(16)))
        b = SecureEndpoint(2, bytes(16), bytes(range(16)))
        # interleave batched blocks in both directions with equal counters
        wires_ab = [a.send_block(2, bytes([i]) * 8, in_batch=True) for i in range(4)]
        wires_ba = [b.send_block(1, bytes([i + 50]) * 8, in_batch=True) for i in range(4)]
        for wab, wba in zip(wires_ab, wires_ba):
            b.receive_block(wab)
            a.receive_block(wba)
        assert b.verify_batch(a.close_batch(2))
        assert a.verify_batch(b.close_batch(1))
