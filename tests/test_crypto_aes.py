"""AES validated against FIPS-197 and NIST SP 800-38A vectors.

Counter mode and GCM only run the forward cipher, so only encryption is
implemented and checked here."""

import pytest

from repro.crypto.aes import AES128, SBOX


def test_sbox_known_entries():
    # FIPS-197 Figure 7 spot checks.
    assert SBOX[0x00] == 0x63
    assert SBOX[0x01] == 0x7C
    assert SBOX[0x53] == 0xED
    assert SBOX[0xFF] == 0x16


def test_sbox_is_a_permutation():
    assert sorted(SBOX) == list(range(256))


def test_fips197_appendix_b_vector():
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
    expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
    assert AES128(key).encrypt_block(plaintext) == expected


def test_fips197_appendix_c1_vector():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
    expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    cipher = AES128(key)
    assert cipher.encrypt_block(plaintext) == expected


@pytest.mark.parametrize(
    "plaintext,expected",
    [
        ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
        ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"),
        ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"),
        ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"),
    ],
)
def test_sp800_38a_ecb_vectors(plaintext, expected):
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    cipher = AES128(key)
    assert cipher.encrypt_block(bytes.fromhex(plaintext)) == bytes.fromhex(expected)


def test_key_length_validated():
    with pytest.raises(ValueError):
        AES128(b"short")


def test_block_length_validated():
    cipher = AES128(bytes(16))
    with pytest.raises(ValueError):
        cipher.encrypt_block(b"tiny")


class TestGenericKeySizes:
    """FIPS-197 appendix C vectors for the longer key sizes."""

    PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")

    def test_aes192_appendix_c2(self):
        from repro.crypto.aes import AES

        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        cipher = AES(key)
        expected = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
        assert cipher.rounds == 12
        assert cipher.encrypt_block(self.PLAINTEXT) == expected

    def test_aes256_appendix_c3(self):
        from repro.crypto.aes import AES

        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        )
        cipher = AES(key)
        expected = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        assert cipher.rounds == 14
        assert cipher.encrypt_block(self.PLAINTEXT) == expected

    def test_invalid_key_sizes_rejected(self):
        from repro.crypto.aes import AES

        for bad in (0, 8, 15, 17, 33):
            with pytest.raises(ValueError):
                AES(bytes(bad))

    def test_aes128_subclass_compatible(self):
        from repro.crypto.aes import AES, AES128

        key = bytes(range(16))
        assert AES128(key).encrypt_block(bytes(16)) == AES(key).encrypt_block(bytes(16))
        with pytest.raises(ValueError):
            AES128(bytes(24))  # the subclass insists on 128-bit keys
