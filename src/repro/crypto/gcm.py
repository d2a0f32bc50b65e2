"""AES-GCM authenticated encryption (NIST SP 800-38D).

GCM = counter-mode encryption + GHASH authentication over GF(2^128).  The
hardware engines the paper models ("fully pipelined AES-GCM engines",
40-cycle latency) compute exactly this; the simulator models their
latency with :class:`~repro.configs.SecurityConfig`'s three latencies,
while this module provides the function for protocol-level tests.
"""

from __future__ import annotations

from repro.crypto.aes import AES128

_R = 0xE1000000000000000000000000000000


def _gf128_mul(x: int, y: int) -> int:
    """Multiply in GF(2^128) with the GCM polynomial (bit-reflected)."""
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


def _bytes_to_int(data: bytes) -> int:
    return int.from_bytes(data, "big")


def _int_to_bytes(value: int) -> bytes:
    return value.to_bytes(16, "big")


def ghash(h: bytes, aad: bytes, ciphertext: bytes) -> bytes:
    """GHASH_H(A, C) as defined by SP 800-38D §6.4."""
    h_int = _bytes_to_int(h)
    y = 0

    def absorb(data: bytes) -> None:
        nonlocal y
        for i in range(0, len(data), 16):
            block = data[i : i + 16]
            if len(block) < 16:
                block = block + b"\x00" * (16 - len(block))
            y = _gf128_mul(y ^ _bytes_to_int(block), h_int)

    absorb(aad)
    absorb(ciphertext)
    lengths = (len(aad) * 8).to_bytes(8, "big") + (len(ciphertext) * 8).to_bytes(8, "big")
    y = _gf128_mul(y ^ _bytes_to_int(lengths), h_int)
    return _int_to_bytes(y)


class AESGCM:
    """AES-128-GCM with 96-bit IVs (the common hardware fast path)."""

    def __init__(self, key: bytes) -> None:
        self._aes = AES128(key)
        self._h = self._aes.encrypt_block(b"\x00" * 16)

    def _j0(self, iv: bytes) -> bytes:
        if len(iv) == 12:
            return iv + b"\x00\x00\x00\x01"
        return self._ghash_iv(iv)

    def _ghash_iv(self, iv: bytes) -> bytes:
        h_int = _bytes_to_int(self._h)
        y = 0
        padded = iv + b"\x00" * ((16 - len(iv) % 16) % 16)
        for i in range(0, len(padded), 16):
            y = _gf128_mul(y ^ _bytes_to_int(padded[i : i + 16]), h_int)
        y = _gf128_mul(y ^ (len(iv) * 8), h_int)
        return _int_to_bytes(y)

    def _ctr_stream(self, j0: bytes, length: int) -> bytes:
        counter = _bytes_to_int(j0)
        out = bytearray()
        while len(out) < length:
            counter = (counter & ~0xFFFFFFFF) | ((counter + 1) & 0xFFFFFFFF)
            out.extend(self._aes.encrypt_block(_int_to_bytes(counter)))
        return bytes(out[:length])

    def encrypt(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> tuple[bytes, bytes]:
        """Return ``(ciphertext, 16-byte tag)``."""
        j0 = self._j0(iv)
        stream = self._ctr_stream(j0, len(plaintext))
        ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
        s = ghash(self._h, aad, ciphertext)
        tag = bytes(a ^ b for a, b in zip(self._aes.encrypt_block(j0), s))
        return ciphertext, tag

    def decrypt(self, iv: bytes, ciphertext: bytes, tag: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and return the plaintext; raises ValueError on forgery."""
        j0 = self._j0(iv)
        s = ghash(self._h, aad, ciphertext)
        expected = bytes(a ^ b for a, b in zip(self._aes.encrypt_block(j0), s))
        if expected[: len(tag)] != tag:
            raise ValueError("GCM tag mismatch: message is forged or replayed")
        stream = self._ctr_stream(j0, len(ciphertext))
        return bytes(c ^ s for c, s in zip(ciphertext, stream))


__all__ = ["AESGCM", "ghash"]
