"""Adversarial battery for the crypto batching/aggregation layer.

Three kinds of guarantee are pinned here:

* **Equivalence** — batch verification accepts exactly the inputs serial
  verification accepts, across randomized mixes of valid and corrupted
  signatures, and bisection attributes *exactly* the corrupted indices.
* **Soundness** — the aggregate form resists the classic attacks on
  naive signature aggregation: rogue-key cancellation, signer-set
  substitution, and aggregate tampering.
* **One form** — every certificate is an aggregate: the retired list
  form cannot be configured.
"""

from __future__ import annotations

import random

import pytest

from repro.config import ProtocolConfig
from repro.crypto import (
    find_invalid,
    schnorr_aggregate,
    schnorr_batch_verify,
    schnorr_verify_aggregate,
)
from repro.crypto.keystore import build_cluster_keys
from repro.crypto.schnorr import (
    N,
    SchnorrSignature,
    SchnorrSignatureScheme,
    decode_point,
    encode_point,
    point_add,
    point_mul,
)
from repro.crypto.signatures import HashSignatureScheme, KeyRegistry
from repro.errors import ConfigError, CryptoError

#: A shared key pool: schnorr keygen is a full point multiplication, so
#: the battery reuses one pool instead of regenerating keys per case.
SCHEME = SchnorrSignatureScheme()
POOL = [SCHEME.keygen(b"battery-%d" % i) for i in range(8)]


def _items(n: int, message_of=lambda i: b"msg-%d" % i):
    """n (public, message, signature) triples from the pool."""
    return [
        (POOL[i].public, message_of(i), SCHEME.sign(POOL[i].secret, message_of(i)))
        for i in range(n)
    ]


def _corrupt(item, mode: str, rng: random.Random):
    public, message, sig = item
    if mode == "flip":
        pos = rng.randrange(len(sig))
        sig = sig[:pos] + bytes([sig[pos] ^ 0x01]) + sig[pos + 1 :]
    elif mode == "wrong-message":
        # A perfectly valid signature — over a different message.
        idx = POOL.index(next(p for p in POOL if p.public == public))
        sig = SCHEME.sign(POOL[idx].secret, message + b"?")
    elif mode == "wrong-key":
        other = POOL[(POOL.index(next(p for p in POOL if p.public == public)) + 1) % len(POOL)]
        public = other.public
    elif mode == "garbage":
        sig = bytes(rng.randrange(256) for _ in range(len(sig)))
    return (public, message, sig)


class TestBatchSerialEquivalence:
    """batch_verify(items) ⇔ all(verify(item)) — property-checked."""

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_mixes(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, len(POOL) + 1)
        items = _items(n)
        corrupted = sorted(rng.sample(range(n), rng.randrange(0, n + 1)))
        modes = ["flip", "wrong-message", "wrong-key", "garbage"]
        for idx in corrupted:
            items[idx] = _corrupt(items[idx], rng.choice(modes), rng)
        serial = [SCHEME.verify(*item) for item in items]
        assert schnorr_batch_verify(items) == all(serial)
        # Bisection attributes exactly the indices serial rejects.
        assert find_invalid(items) == [i for i, ok in enumerate(serial) if not ok]

    def test_empty_batch_is_vacuously_valid(self):
        assert schnorr_batch_verify([])
        assert find_invalid([]) == []

    def test_single_item_matches_plain_verify(self):
        (item,) = _items(1)
        assert schnorr_batch_verify([item])
        bad = _corrupt(item, "flip", random.Random(0))
        assert not schnorr_batch_verify([bad])
        assert find_invalid([bad]) == [0]

    def test_duplicate_signatures_batch(self):
        # The same (key, message, signature) appearing twice must not
        # cancel in the linear combination (coefficients are per-index).
        (item,) = _items(1)
        assert schnorr_batch_verify([item, item])

    def test_batch_is_deterministic(self):
        items = _items(4)
        items[2] = _corrupt(items[2], "flip", random.Random(9))
        assert find_invalid(items) == find_invalid(items) == [2]


class TestBisectionExactness:
    """k corrupted out of n → bisection names exactly those k."""

    @pytest.mark.parametrize("k", [0, 1, 2, 4, 8])
    def test_exact_attribution(self, k):
        n = len(POOL)
        items = _items(n, message_of=lambda i: b"common")
        rng = random.Random(k)
        corrupted = sorted(rng.sample(range(n), k))
        for idx in corrupted:
            items[idx] = _corrupt(items[idx], "flip", rng)
        assert find_invalid(items) == corrupted
        assert schnorr_batch_verify(items) == (k == 0)

    def test_adjacent_corruptions(self):
        # Adjacent bad indices land in one bisection half — the recursion
        # must keep splitting rather than blaming the whole half.
        items = _items(6)
        rng = random.Random(3)
        items[2] = _corrupt(items[2], "flip", rng)
        items[3] = _corrupt(items[3], "garbage", rng)
        assert find_invalid(items) == [2, 3]


class TestAggregateSoundness:
    def _agg(self, n: int, message: bytes = b"agg-msg"):
        publics = [POOL[i].public for i in range(n)]
        sigs = [SCHEME.sign(POOL[i].secret, message) for i in range(n)]
        return publics, schnorr_aggregate(publics, message, sigs)

    def test_roundtrip(self):
        publics, agg = self._agg(5)
        assert schnorr_verify_aggregate(publics, b"agg-msg", agg)

    def test_wire_size(self):
        for n in (1, 4, 8):
            publics, agg = self._agg(n)
            assert len(agg) == 33 * n + 32  # half-agg: R_i's kept, s folded

    def test_wrong_message_rejected(self):
        publics, agg = self._agg(3)
        assert not schnorr_verify_aggregate(publics, b"other", agg)

    def test_signer_set_substitution_rejected(self):
        publics, agg = self._agg(3)
        reordered = [publics[1], publics[0], publics[2]]
        assert not schnorr_verify_aggregate(reordered, b"agg-msg", agg)
        subset = publics[:2]
        assert not schnorr_verify_aggregate(subset, b"agg-msg", agg)
        superset = publics + [POOL[4].public]
        assert not schnorr_verify_aggregate(superset, b"agg-msg", agg)

    def test_tampered_aggregate_rejected(self):
        publics, agg = self._agg(3)
        for pos in (0, 33, len(agg) - 1):
            bad = agg[:pos] + bytes([agg[pos] ^ 0x01]) + agg[pos + 1 :]
            assert not schnorr_verify_aggregate(publics, b"agg-msg", bad)
        assert not schnorr_verify_aggregate(publics, b"agg-msg", agg[:-1])
        assert not schnorr_verify_aggregate(publics, b"agg-msg", b"")

    def test_rogue_key_cancellation_rejected(self):
        """The classic rogue-key attack must fail.

        The attacker sees an honest key P_h, picks a trapdoor secret x_t,
        and registers the rogue key P_rogue = x_t·G − P_h, so that the
        *sum* of the two keys is x_t·G — a key the attacker alone
        controls.  Under naive key-sum aggregation with a single shared
        challenge, one ordinary signature by x_t verifies as a two-party
        aggregate.  Here that forgery must be rejected: each signer's
        challenge binds its own (R_i, P_i), so key sums never appear.
        """
        honest = POOL[0]
        x_t = 0xB00B1E5 % N
        sum_point = point_mul(x_t)
        rogue_point = point_add(sum_point, _negate(decode_point(honest.public)))
        rogue_public = encode_point(rogue_point)
        message = b"rogue-target"

        # The attacker's forgery under the broken scheme: a plain
        # signature with secret x_t, split across the two wire slots with
        # the same nonce commitment in each.
        k = 0xC0FFEE % N
        r_point = point_mul(k)
        r_enc = encode_point(r_point)
        from repro.crypto.schnorr import _hash_to_scalar

        for challenge_style in ("sum-key", "per-slot"):
            if challenge_style == "sum-key":
                e = _hash_to_scalar(r_enc, encode_point(sum_point), message)
                s = (k + e * x_t) % N
            else:
                e1 = _hash_to_scalar(r_enc, honest.public, message)
                e2 = _hash_to_scalar(r_enc, rogue_public, message)
                # Best effort with one trapdoor: pretend e1 ≈ e2.
                s = (2 * k + e1 * x_t + e2 * x_t) % N
            forged = r_enc + r_enc + s.to_bytes(32, "big")
            assert not schnorr_verify_aggregate(
                [honest.public, rogue_public], message, forged
            ), f"rogue-key forgery accepted ({challenge_style})"

    def test_aggregating_invalid_signature_yields_invalid_aggregate(self):
        message = b"agg-msg"
        publics = [POOL[0].public, POOL[1].public]
        sigs = [
            SCHEME.sign(POOL[0].secret, message),
            SCHEME.sign(POOL[1].secret, b"something else"),
        ]
        agg = schnorr_aggregate(publics, message, sigs)
        assert not schnorr_verify_aggregate(publics, message, agg)

    def test_aggregate_input_validation(self):
        with pytest.raises(CryptoError):
            schnorr_aggregate([], b"m", [])
        with pytest.raises(CryptoError):
            schnorr_aggregate([POOL[0].public], b"m", [])


class TestSignerRegistryBinding:
    """Certificate-level aggregation resolves keys through the shared
    registry — an unregistered (rogue) key cannot enter at all."""

    def _signers(self, scheme_name: str, n: int = 4):
        return build_cluster_keys(scheme_name, n)

    @pytest.mark.parametrize("scheme_name", ["hashsig", "schnorr"])
    def test_unknown_signer_rejected_everywhere(self, scheme_name):
        signers = self._signers(scheme_name)
        message = b"registry-bound"
        pairs = [
            (s.replica_id, s.digest_and_sign("test", message)) for s in signers[:3]
        ]
        ghost = pairs + [(99, pairs[0][1])]
        assert not signers[0].batch_verify_digest("test", message, ghost)
        assert 3 in signers[0].find_invalid_digest("test", message, ghost)
        with pytest.raises(CryptoError):
            signers[0].aggregate_digest("test", message, ghost)
        agg = signers[0].aggregate_digest("test", message, pairs)
        assert signers[0].verify_aggregate_digest((0, 1, 2), "test", message, agg)
        assert not signers[0].verify_aggregate_digest((0, 1, 99), "test", message, agg)
        assert not signers[0].verify_aggregate_digest((0, 1), "test", message, agg)

    @pytest.mark.parametrize("scheme_name", ["hashsig", "schnorr"])
    def test_find_invalid_digest_names_exactly_the_bad_votes(self, scheme_name):
        signers = self._signers(scheme_name)
        message = b"flood"
        pairs = [
            (s.replica_id, s.digest_and_sign("test", message)) for s in signers
        ]
        bad = pairs[1][1][:-1] + bytes([pairs[1][1][-1] ^ 0x01])
        pairs[1] = (1, bad)
        assert not signers[0].batch_verify_digest("test", message, pairs)
        assert signers[0].find_invalid_digest("test", message, pairs) == [1]

    def test_hashsig_aggregate_is_hmac_sized(self):
        signers = self._signers("hashsig")
        pairs = [(s.replica_id, s.digest_and_sign("test", b"m")) for s in signers]
        agg = signers[0].aggregate_digest("test", b"m", pairs)
        assert len(agg) == 32
        assert not signers[0].verify_aggregate_digest(
            tuple(s.replica_id for s in signers), "test", b"m", b"\x00" * 32
        )


class TestHashsigBatchEquivalence:
    """The default scheme's batch path is serial under the hood — assert
    the contract anyway so swapping implementations stays safe."""

    def test_batch_matches_serial(self):
        registry = KeyRegistry()
        scheme = HashSignatureScheme(registry)
        pairs = [scheme.keygen(b"h-%d" % i) for i in range(4)]
        for i, pair in enumerate(pairs):
            registry.register(i, pair)
        items = [
            (p.public, b"m-%d" % i, scheme.sign(p.secret, b"m-%d" % i))
            for i, p in enumerate(pairs)
        ]
        assert scheme.batch_verify(items)
        items[2] = (items[2][0], items[2][1], b"\x00" * len(items[2][2]))
        assert not scheme.batch_verify(items)
        assert scheme.find_invalid(items) == [2]


def test_the_retired_list_form_cannot_be_configured():
    """Every certificate is an aggregate; ``crypto_aggregate`` is a
    True-only keyword, and asking for the list form fails at assembly."""
    from repro.bench.common import make_config
    from repro.runner.cluster import build_cluster

    assert ProtocolConfig(n=3, f=1).crypto_aggregate is True
    with pytest.raises(ConfigError, match="crypto_aggregate"):
        ProtocolConfig(n=3, f=1, crypto_aggregate=False).validate()
    with pytest.raises(ConfigError, match="crypto_aggregate"):
        build_cluster(make_config("alterbft", crypto_aggregate=False))


def _negate(point):
    from repro.crypto.schnorr import P

    x, y = point
    return (x, (-y) % P)
