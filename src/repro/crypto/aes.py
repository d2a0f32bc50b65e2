"""AES-128 block cipher, implemented from the FIPS-197 specification.

Only the forward cipher is implemented: counter mode (and GCM, which is
built on counter mode) never runs the inverse cipher.

The implementation favours clarity over speed: the state is a 16-byte
``bytearray`` in column-major order as in the standard, and each round
transformation is its own function.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# S-box construction.  Rather than pasting the 256-entry table, derive it from
# the definition: multiplicative inverse in GF(2^8) followed by the affine
# transform.  This is done once at import time and verified by test vectors.
# ---------------------------------------------------------------------------


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> bytes:
    # Multiplicative inverses via exponentiation: a^254 == a^-1 in GF(2^8).
    inv = [0] * 256
    for a in range(1, 256):
        x = a
        acc = 1
        # a^254 = a^(2+4+8+16+32+64+128)
        for bit in range(1, 8):
            x = _gf_mul(x, x)
            acc = _gf_mul(acc, x)
        inv[a] = acc
    sbox = bytearray(256)
    for a in range(256):
        b = inv[a]
        # affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
        res = 0x63
        for shift in range(5):
            res ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        sbox[a] = res
    return bytes(sbox)


SBOX = _build_sbox()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]

# Precomputed GF multiplication tables for MixColumns speed.
_MUL2 = bytes(_gf_mul(x, 2) for x in range(256))
_MUL3 = bytes(_gf_mul(x, 3) for x in range(256))


#: rounds per key length (FIPS-197 §5)
_ROUNDS_BY_KEY_LEN = {16: 10, 24: 12, 32: 14}


class AES:
    """AES with a 128-, 192-, or 256-bit key (10/12/14 rounds)."""

    BLOCK_SIZE = 16

    def __init__(self, key: bytes) -> None:
        rounds = _ROUNDS_BY_KEY_LEN.get(len(key))
        if rounds is None:
            raise ValueError(
                f"AES requires a 16-, 24-, or 32-byte key, got {len(key)} bytes"
            )
        self.rounds = rounds
        self.round_keys = self._expand_key(key, rounds)

    # ------------------------------------------------------------------
    # Key schedule (FIPS-197 §5.2, generic over Nk)
    # ------------------------------------------------------------------
    @staticmethod
    def _expand_key(key: bytes, rounds: int) -> list[bytes]:
        nk = len(key) // 4
        words = [key[4 * i : 4 * i + 4] for i in range(nk)]
        for i in range(nk, 4 * (rounds + 1)):
            temp = words[i - 1]
            if i % nk == 0:
                rotated = temp[1:] + temp[:1]
                temp = bytes(SBOX[b] for b in rotated)
                temp = bytes([temp[0] ^ _RCON[i // nk - 1]]) + temp[1:]
            elif nk > 6 and i % nk == 4:
                temp = bytes(SBOX[b] for b in temp)  # AES-256 extra SubWord
            words.append(bytes(a ^ b for a, b in zip(words[i - nk], temp)))
        return [b"".join(words[4 * r : 4 * r + 4]) for r in range(rounds + 1)]

    # ------------------------------------------------------------------
    # Round transformations.  State is a bytearray of 16 bytes where
    # state[r + 4*c] is row r, column c (column-major, as in FIPS-197).
    # ------------------------------------------------------------------
    @staticmethod
    def _add_round_key(state: bytearray, round_key: bytes) -> None:
        for i in range(16):
            state[i] ^= round_key[i]

    @staticmethod
    def _sub_bytes(state: bytearray) -> None:
        for i in range(16):
            state[i] = SBOX[state[i]]

    @staticmethod
    def _shift_rows(state: bytearray) -> None:
        for r in range(1, 4):
            row = [state[r + 4 * c] for c in range(4)]
            row = row[r:] + row[:r]
            for c in range(4):
                state[r + 4 * c] = row[c]

    @staticmethod
    def _mix_columns(state: bytearray) -> None:
        for c in range(4):
            i = 4 * c
            a0, a1, a2, a3 = state[i], state[i + 1], state[i + 2], state[i + 3]
            state[i] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
            state[i + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
            state[i + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
            state[i + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def encrypt_block(self, plaintext: bytes) -> bytes:
        if len(plaintext) != 16:
            raise ValueError("AES operates on 16-byte blocks")
        state = bytearray(plaintext)
        self._add_round_key(state, self.round_keys[0])
        for rnd in range(1, self.rounds):
            self._sub_bytes(state)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, self.round_keys[rnd])
        self._sub_bytes(state)
        self._shift_rows(state)
        self._add_round_key(state, self.round_keys[self.rounds])
        return bytes(state)


class AES128(AES):
    """AES restricted to 128-bit keys (the configuration the paper models)."""

    ROUNDS = 10

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ValueError(f"AES-128 requires a 16-byte key, got {len(key)}")
        super().__init__(key)


__all__ = ["AES", "AES128", "SBOX"]
