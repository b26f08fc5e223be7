"""Schnorr signatures over secp256k1: curve math and the scheme."""

from __future__ import annotations

import pytest

from repro.crypto.schnorr import (
    GX,
    GY,
    N,
    P as P_FIELD,
    SchnorrSignature,
    SchnorrSignatureScheme,
    decode_point,
    encode_point,
    is_on_curve,
    point_add,
    point_mul,
)
from repro.crypto.signatures import SIGNATURE_SIZE
from repro.errors import CryptoError


class TestCurveMath:
    def test_generator_on_curve(self):
        assert is_on_curve((GX, GY))

    def test_infinity(self):
        assert is_on_curve(None)
        assert point_add(None, (GX, GY)) == (GX, GY)
        assert point_add((GX, GY), None) == (GX, GY)

    def test_inverse_sums_to_infinity(self):
        g = (GX, GY)
        neg = (GX, (-GY) % (2**256 - 2**32 - 977))
        assert point_add(g, neg) is None

    def test_scalar_mul_matches_repeated_add(self):
        g = (GX, GY)
        five_by_add = point_add(point_add(point_add(point_add(g, g), g), g), g)
        assert point_mul(5) == five_by_add

    def test_order_annihilates(self):
        assert point_mul(N) is None
        assert point_mul(N + 1) == (GX, GY)

    def test_results_stay_on_curve(self):
        for k in (2, 3, 12345, N - 1):
            assert is_on_curve(point_mul(k))


class TestPointEncoding:
    def test_roundtrip(self):
        for k in (1, 2, 99, 2**100):
            point = point_mul(k)
            assert decode_point(encode_point(point)) == point

    def test_bad_prefix(self):
        data = encode_point((GX, GY))
        with pytest.raises(CryptoError):
            decode_point(b"\x05" + data[1:])

    def test_bad_length(self):
        with pytest.raises(CryptoError):
            decode_point(b"\x02" + b"\x00" * 10)

    def test_not_on_curve(self):
        # x = 0 gives y^2 = 7, which has no square root mod p.
        with pytest.raises(CryptoError):
            decode_point(b"\x02" + (0).to_bytes(32, "big"))

    def test_x_at_or_above_field_prime(self):
        # x must be a canonical field element: p itself (≡ 0 mod p, but
        # non-canonical) and anything above must be rejected, not reduced.
        p = 2**256 - 2**32 - 977
        for x in (p, p + 1, 2**256 - 1):
            with pytest.raises(CryptoError):
                decode_point(b"\x02" + x.to_bytes(32, "big"))

    def test_empty_and_truncated(self):
        with pytest.raises(CryptoError):
            decode_point(b"")
        with pytest.raises(CryptoError):
            decode_point(b"\x02")

    def test_uncompressed_prefix_rejected(self):
        # Only compressed SEC1 (0x02/0x03) is wire-legal; the 0x04
        # uncompressed marker must not slip through even at 33 bytes.
        data = encode_point((GX, GY))
        with pytest.raises(CryptoError):
            decode_point(b"\x04" + data[1:])

    def test_overlong_rejected(self):
        with pytest.raises(CryptoError):
            decode_point(encode_point((GX, GY)) + b"\x00")

    def test_parity_prefix_selects_y(self):
        x, y = point_mul(7)
        even, odd = (y, P_FIELD - y) if y % 2 == 0 else (P_FIELD - y, y)
        assert decode_point(b"\x02" + x.to_bytes(32, "big")) == (x, even)
        assert decode_point(b"\x03" + x.to_bytes(32, "big")) == (x, odd)


class TestScheme:
    def test_sign_verify(self):
        scheme = SchnorrSignatureScheme()
        pair = scheme.keygen(b"seed")
        sig = scheme.sign(pair.secret, b"hello world")
        assert len(sig) == SIGNATURE_SIZE
        assert scheme.verify(pair.public, b"hello world", sig)

    def test_deterministic_signatures(self):
        scheme = SchnorrSignatureScheme()
        pair = scheme.keygen(b"seed")
        assert scheme.sign(pair.secret, b"m") == scheme.sign(pair.secret, b"m")

    def test_tampered_message_rejected(self):
        scheme = SchnorrSignatureScheme()
        pair = scheme.keygen(b"seed")
        sig = scheme.sign(pair.secret, b"m")
        assert not scheme.verify(pair.public, b"m2", sig)

    def test_tampered_signature_rejected(self):
        scheme = SchnorrSignatureScheme()
        pair = scheme.keygen(b"seed")
        sig = bytearray(scheme.sign(pair.secret, b"m"))
        sig[40] ^= 0x01
        assert not scheme.verify(pair.public, b"m", bytes(sig))

    def test_wrong_key_rejected(self):
        scheme = SchnorrSignatureScheme()
        a = scheme.keygen(b"a")
        b = scheme.keygen(b"b")
        sig = scheme.sign(a.secret, b"m")
        assert not scheme.verify(b.public, b"m", sig)

    def test_garbage_signature_rejected(self):
        scheme = SchnorrSignatureScheme()
        pair = scheme.keygen(b"seed")
        assert not scheme.verify(pair.public, b"m", b"\xff" * SIGNATURE_SIZE)
        assert not scheme.verify(pair.public, b"m", b"short")

    def test_known_answer(self):
        """Signing with a key this scheme generated reuses its public key;
        the bytes must be the ones recomputing sk·G gives (a scheme that
        never saw the key)."""
        expected = bytes.fromhex(
            "aaf892f9a4e70d914cc2652491777c96067bc16cf3adf450100ebab26e09ae1d"
            "0b8c2fead24152b0177e72280cb72c2818111db7dbf7aeb396f6d8998cc35216"
        )
        scheme = SchnorrSignatureScheme()
        pair = scheme.keygen(b"known-answer")
        assert pair.public.hex() == (
            "020cc9a99625dcc1d66b9f6fb5b35f4978e12633947ea923104c2deab8dc955972"
        )
        assert scheme.sign(pair.secret, b"known answer") == expected
        assert SchnorrSignatureScheme().sign(pair.secret, b"known answer") == expected

    def test_distinct_messages_distinct_signatures(self):
        scheme = SchnorrSignatureScheme()
        pair = scheme.keygen(b"seed")
        assert scheme.sign(pair.secret, b"m1") != scheme.sign(pair.secret, b"m2")


class TestSignatureEncoding:
    def test_roundtrip(self):
        scheme = SchnorrSignatureScheme()
        pair = scheme.keygen(b"x")
        raw = scheme.sign(pair.secret, b"msg")
        sig = SchnorrSignature.decode(raw)
        assert sig.encode() == raw

    def test_bad_length(self):
        with pytest.raises(CryptoError):
            SchnorrSignature.decode(b"\x00" * 10)
