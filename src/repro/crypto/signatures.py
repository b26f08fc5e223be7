"""Signature scheme abstraction and the fast keyed-hash scheme.

Two interchangeable schemes are provided:

* :class:`HashSignatureScheme` — simulation-grade.  A signature is
  ``HMAC-SHA256(secret_key, message)`` and the *public key* is a
  commitment ``H(secret)``.  Verification requires the verifier to know the
  signer's secret, which every simulated verifier does through the shared
  :class:`KeyRegistry`.  This is NOT a real signature scheme (it is not
  transferable outside the registry), but it is unforgeable against the
  simulated adversary — who never reads honest registry entries — and it
  is two orders of magnitude faster than any pure-Python public-key
  scheme, which keeps throughput experiments tractable.  The substitution
  is recorded in DESIGN.md.

* :class:`SchnorrSignatureScheme` (in :mod:`repro.crypto.schnorr`) — a real
  transferable Schnorr signature over secp256k1, used by correctness tests
  and available for real-transport deployments.

Both implement :class:`SignatureScheme`, so protocol code never knows
which one it uses.
"""

from __future__ import annotations

import hashlib
import hmac
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from functools import lru_cache

from ..errors import CryptoError
from .hashing import Digest, domain_hash, sha256

#: Wire size of a signature, bytes.  Both schemes produce fixed-size
#: signatures so message-size accounting is scheme-independent.
SIGNATURE_SIZE = 64

#: Default bound on a scheme's verification cache (entries).  A replica
#: meets the same (signer, digest, signature) triple again in a relayed
#: copy of a message, in the certificate the next header carries, and in
#: the loopback copy of what it signed itself; the cache makes the repeat
#: verifications O(1) dict lookups.  Repeats come
#: within a few heights, and 1,024 entries hit exactly as often as 65,536
#: did.  Module-level so tests can force 0 (cache off) for A/B runs.
VERIFY_CACHE_DEFAULT = 1 << 10


@dataclass(frozen=True)
class KeyPair:
    """A signing key pair.

    Attributes:
        public: public verification key bytes (scheme-specific encoding).
        secret: secret signing key bytes.  Never serialized onto the wire.
    """

    public: bytes
    secret: bytes


class SignatureScheme:
    """Interface implemented by every signature scheme.

    Methods operate on raw bytes; callers are responsible for domain
    separation (see :func:`repro.crypto.hashing.domain_hash`).

    Beyond single-signature sign/verify, every scheme exposes a *batch*
    surface (:meth:`batch_verify` / :meth:`find_invalid`) and an
    *aggregation* surface (:meth:`aggregate` / :meth:`verify_aggregate`).
    The base class supplies serial reference implementations, so a scheme
    only overrides what it can accelerate: Schnorr batches floods into
    one multi-exponentiation and half-aggregates certificate signatures;
    hashsig collapses a certificate to a single combined-key MAC.

    Every check goes through one bounded LRU of verdicts keyed by the
    *full* ``(public, message, signature)`` triple — an aggregate's key is
    ``(publics, message, aggregate)``.  Keying on all of it is what makes
    the cache sound against a Byzantine signer: a vote by the same signer
    for a different digest, or a forged signature over a cached digest,
    forms a different key and is always checked; a hit can only repeat
    the verdict on the identical input, and every check is deterministic.
    A scheme implements the uncached operations (``_sign``, ``_verify``,
    ``_batch_verify``, ``_find_invalid``, ``_aggregate``,
    ``_verify_aggregate``) and the public methods here consult the cache
    around them.  ``cache_size=0`` disables the cache.

    Two operations *vouch*: they enter a verdict as valid without
    computing it, because the check could only repeat what the operation
    just did.

    * :meth:`sign` vouches for ``(public, message, signature)``, where
      ``public`` is the key the scheme derives from the secret itself
      (``_public_from_secret``), never one a caller supplies.  Every
      signature ``_sign`` returns verifies under that key.
    * :meth:`aggregate` vouches for ``(publics, message, aggregate)`` only
      if every input triple is held as valid at that moment — checked one
      by one, in a passing batch, or vouched by signing.  An aggregate of
      valid signatures verifies, so no caller has to promise that it
      checked its inputs.

    A vouched key is a full triple like any other, so a forged signature,
    another digest or a bit-flipped copy is a different key and is still
    checked; nothing is trusted on a sender's claimed id.  The property
    battery in ``tests/test_crypto_batch.py`` pins both completeness
    assumptions for every scheme.  With the cache off nothing is vouched.
    """

    name = "abstract"

    def __init__(self, cache_size: Optional[int] = None) -> None:
        self.cache_size = VERIFY_CACHE_DEFAULT if cache_size is None else cache_size
        self._verify_cache: "OrderedDict[tuple, bool]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0

    def keygen(self, seed: bytes) -> KeyPair:
        """Derive a key pair deterministically from ``seed``."""
        raise NotImplementedError

    def sign(self, secret: bytes, message: bytes) -> bytes:
        """Sign ``message``; returns a ``SIGNATURE_SIZE``-byte signature,
        vouched for in the cache under the secret's own public key."""
        signature = self._sign(secret, message)
        if self.cache_size > 0:
            self._remember((self._public_from_secret(secret), message, signature), True)
        return signature

    def _sign(self, secret: bytes, message: bytes) -> bytes:
        """The signature itself, unvouched."""
        raise NotImplementedError

    def _public_from_secret(self, secret: bytes) -> bytes:
        """The public key the scheme derives from ``secret``."""
        raise NotImplementedError

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        """Return True iff ``signature`` is valid for ``message``."""
        key = (public, message, signature)
        verdict = self._cached(key)
        if verdict is None:
            verdict = self._verify(public, message, signature)
            self._remember(key, verdict)
        return verdict

    def _verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        """The check itself, uncached."""
        raise NotImplementedError

    # -- the verdict cache ----------------------------------------------------

    def _cached(self, key: tuple) -> Optional[bool]:
        """The cached verdict on ``key``, or None (always, with the cache off)."""
        if self.cache_size <= 0:
            return None
        verdict = self._verify_cache.get(key)
        if verdict is None:
            self.cache_misses += 1
            return None
        self._verify_cache.move_to_end(key)
        self.cache_hits += 1
        return verdict

    def _remember(self, key: tuple, verdict: bool) -> None:
        if self.cache_size <= 0:
            return
        cache = self._verify_cache
        cache[key] = verdict
        if len(cache) > self.cache_size:
            cache.popitem(last=False)
            self.cache_evictions += 1

    # -- batch verification ---------------------------------------------------

    def batch_verify(self, items: Sequence[Tuple[bytes, bytes, bytes]]) -> bool:
        """True iff every ``(public, message, signature)`` triple verifies.

        A triple cached as valid is not checked again and one cached as
        invalid fails the batch at once; the rest are checked together by
        ``_batch_verify``, and cached as valid when that passes.
        """
        pending = []
        for public, message, signature in items:
            key = (public, message, signature)
            verdict = self._cached(key)
            if verdict is None:
                pending.append(key)
            elif not verdict:
                return False
        if not pending:
            return True
        if not self._batch_verify(pending):
            return False
        for key in pending:
            self._remember(key, True)
        return True

    def _batch_verify(self, items: Sequence[Tuple[bytes, bytes, bytes]]) -> bool:
        """Reference implementation: serial short-circuiting verification —
        behaviorally identical to ``all(verify(...))``, so a scheme-level
        batch override must agree with it on every input (the
        property-based battery in ``tests/test_crypto_batch.py`` pins
        this equivalence).
        """
        return all(self._verify(p, m, s) for p, m, s in items)

    def find_invalid(self, items: Sequence[Tuple[bytes, bytes, bytes]]) -> List[int]:
        """Indices of the invalid triples (exact attribution, no more).

        Cached verdicts are reused; the other triples go to
        ``_find_invalid``, and their verdicts are cached.
        """
        keys = [(p, m, s) for p, m, s in items]
        invalid: List[int] = []
        pending: List[int] = []
        for index, key in enumerate(keys):
            verdict = self._cached(key)
            if verdict is None:
                pending.append(index)
            elif not verdict:
                invalid.append(index)
        found = {pending[i] for i in self._find_invalid([keys[i] for i in pending])}
        for index in pending:
            self._remember(keys[index], index not in found)
        return sorted(invalid + list(found))

    def _find_invalid(self, items: Sequence[Tuple[bytes, bytes, bytes]]) -> List[int]:
        """Reference implementation: linear scan.  Schemes with a cheap
        batch check override this with bisection."""
        return [i for i, (p, m, s) in enumerate(items) if not self._verify(p, m, s)]

    # -- aggregation ----------------------------------------------------------

    def aggregate(
        self, publics: Sequence[bytes], message: bytes, signatures: Sequence[bytes]
    ) -> bytes:
        """Combine per-signer signatures over one ``message`` into one blob.

        Inputs are parallel sequences in canonical signer order.
        Aggregation is a compression step, not a validity filter: an
        invalid input yields an aggregate that fails verification.  The
        aggregate is vouched for when every input is held as valid.
        """
        aggregate = self._aggregate(publics, message, signatures)
        cache = self._verify_cache
        if self.cache_size > 0 and all(
            cache.get((public, message, signature)) is True
            for public, signature in zip(publics, signatures)
        ):
            self._remember((tuple(publics), message, aggregate), True)
        return aggregate

    def _aggregate(
        self, publics: Sequence[bytes], message: bytes, signatures: Sequence[bytes]
    ) -> bytes:
        raise CryptoError(f"scheme {self.name!r} does not support aggregation")

    def verify_aggregate(
        self, publics: Sequence[bytes], message: bytes, aggregate: bytes
    ) -> bool:
        """Check an :meth:`aggregate` blob against its signer set."""
        key = (tuple(publics), message, aggregate)
        verdict = self._cached(key)
        if verdict is None:
            verdict = self._verify_aggregate(publics, message, aggregate)
            self._remember(key, verdict)
        return verdict

    def _verify_aggregate(
        self, publics: Sequence[bytes], message: bytes, aggregate: bytes
    ) -> bool:
        raise CryptoError(f"scheme {self.name!r} does not support aggregation")


class KeyRegistry:
    """Maps replica ids to public keys (and, for hashsig, secrets).

    One registry is shared by all replicas of a simulated cluster; it
    plays the role of the PKI that a real deployment establishes out of
    band.
    """

    def __init__(self) -> None:
        self._public: Dict[int, bytes] = {}
        self._secret: Dict[int, bytes] = {}
        self._id_by_public: Dict[bytes, int] = {}
        self._sorted_ids: List[int] = []

    def register(self, replica_id: int, pair: KeyPair) -> None:
        if replica_id in self._public:
            raise CryptoError(f"replica {replica_id} already registered")
        self._public[replica_id] = pair.public
        self._secret[replica_id] = pair.secret
        self._id_by_public[pair.public] = replica_id
        self._sorted_ids = sorted(self._public)

    def public_key(self, replica_id: int) -> bytes:
        try:
            return self._public[replica_id]
        except KeyError:
            raise CryptoError(f"no public key for replica {replica_id}") from None

    def _secret_key(self, replica_id: int) -> bytes:
        """Internal: used only by HashSignatureScheme verification."""
        try:
            return self._secret[replica_id]
        except KeyError:
            raise CryptoError(f"no secret key for replica {replica_id}") from None

    def id_for_public(self, public: bytes) -> Optional[int]:
        """Reverse lookup: replica id holding ``public``, or None."""
        return self._id_by_public.get(public)

    def known_ids(self) -> List[int]:
        return list(self._sorted_ids)

    def __contains__(self, replica_id: int) -> bool:
        return replica_id in self._public

    def __len__(self) -> int:
        return len(self._public)


class HashSignatureScheme(SignatureScheme):
    """HMAC-based simulated signatures (see module docstring)."""

    name = "hashsig"

    def __init__(
        self, registry: Optional[KeyRegistry] = None, cache_size: Optional[int] = None
    ) -> None:
        super().__init__(cache_size)
        self.registry = registry if registry is not None else KeyRegistry()
        self._agg_secret_cache: Dict[Tuple[bytes, ...], bytes] = {}

    def keygen(self, seed: bytes) -> KeyPair:
        secret = sha256(b"hashsig-secret" + seed)
        return KeyPair(public=self._public_from_secret(secret), secret=secret)

    def _public_from_secret(self, secret: bytes) -> bytes:
        return sha256(b"hashsig-public" + secret)

    def _sign(self, secret: bytes, message: bytes) -> bytes:
        mac = hmac.new(secret, message, hashlib.sha256).digest()
        # Pad to the common SIGNATURE_SIZE so wire sizes match schnorr.
        return mac + sha256(mac + message)

    def _verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        if len(signature) != SIGNATURE_SIZE:
            return False
        secret = self._secret_for_public(public)
        if secret is None:
            return False
        expected = self._sign(secret, message)
        return hmac.compare_digest(expected, signature)

    def _secret_for_public(self, public: bytes) -> Optional[bytes]:
        replica_id = self.registry.id_for_public(public)
        if replica_id is None:
            return None
        return self.registry._secret_key(replica_id)

    # -- aggregation ----------------------------------------------------------
    #
    # The hashsig aggregate of a signer set is a single MAC under a
    # *combined* secret derived from every member's secret key:
    #
    #     aggregate = HMAC(H("hashsig-agg" || secret_1 || ... || secret_q), m)
    #
    # Consistent with the scheme's trust model (verification already
    # requires the verifier to know the signers' secrets through the
    # shared registry), and unforgeable against the simulated adversary,
    # who never reads honest registry entries.  32 bytes regardless of
    # quorum size — the maximal version of the message-size saving the
    # real half-aggregated Schnorr variant provides — and one HMAC to
    # verify instead of f+1.

    def _combined_secret(self, publics: Tuple[bytes, ...]) -> Optional[bytes]:
        cached = self._agg_secret_cache.get(publics)
        if cached is not None:
            return cached
        parts = []
        for public in publics:
            secret = self._secret_for_public(public)
            if secret is None:
                return None
            parts.append(secret)
        combined = sha256(b"hashsig-agg" + b"".join(parts))
        if len(self._agg_secret_cache) >= 4096:
            self._agg_secret_cache.clear()
        self._agg_secret_cache[publics] = combined
        return combined

    def _aggregate(
        self, publics: Sequence[bytes], message: bytes, signatures: Sequence[bytes]
    ) -> bytes:
        if not publics or len(publics) != len(signatures):
            raise CryptoError("aggregate needs one signature per public key")
        combined = self._combined_secret(tuple(publics))
        if combined is None:
            raise CryptoError("aggregate includes an unregistered public key")
        return hmac.new(combined, message, hashlib.sha256).digest()

    def _verify_aggregate(
        self, publics: Sequence[bytes], message: bytes, aggregate: bytes
    ) -> bool:
        if not publics or len(aggregate) != 32:
            return False
        combined = self._combined_secret(tuple(publics))
        if combined is None:
            return False
        expected = hmac.new(combined, message, hashlib.sha256).digest()
        return hmac.compare_digest(expected, aggregate)


class Signer:
    """Convenience wrapper binding a scheme, a registry, and one identity.

    Protocol code holds a :class:`Signer` and calls :meth:`sign` /
    :meth:`verify` with replica ids instead of raw keys.
    """

    def __init__(
        self,
        scheme: SignatureScheme,
        registry: KeyRegistry,
        replica_id: int,
        pair: KeyPair,
    ) -> None:
        self.scheme = scheme
        self.registry = registry
        self.replica_id = replica_id
        self._pair = pair

    @property
    def public_key(self) -> bytes:
        return self._pair.public

    def sign(self, message: bytes) -> bytes:
        """Sign ``message`` under this replica's secret key."""
        return self.scheme.sign(self._pair.secret, message)

    def verify(self, signer_id: int, message: bytes, signature: bytes) -> bool:
        """Verify a signature attributed to ``signer_id``."""
        try:
            public = self.registry.public_key(signer_id)
        except CryptoError:
            return False
        return self.scheme.verify(public, message, signature)

    def digest_and_sign(self, domain: str, message: bytes) -> bytes:
        """Sign the domain-separated hash of ``message``."""
        return self.sign(_domain_hash_cached(domain, message))

    def verify_digest(self, signer_id: int, domain: str, message: bytes, signature: bytes) -> bool:
        """Verify a signature produced by :meth:`digest_and_sign`."""
        return self.verify(signer_id, _domain_hash_cached(domain, message), signature)

    def _resolve_publics(
        self, signer_ids: Sequence[int]
    ) -> Optional[List[bytes]]:
        publics = []
        for signer_id in signer_ids:
            try:
                publics.append(self.registry.public_key(signer_id))
            except CryptoError:
                return None
        return publics

    def batch_verify_digest(
        self, domain: str, message: bytes, pairs: Sequence[Tuple[int, bytes]]
    ) -> bool:
        """Verify many ``(signer_id, signature)`` pairs over one digest.

        One scheme-level batch check (a single multi-exponentiation for
        schnorr) instead of ``len(pairs)`` independent verifications.  An
        unknown signer id makes the whole batch invalid, as it would any
        single :meth:`verify_digest` call.
        """
        digest = _domain_hash_cached(domain, message)
        items = []
        for signer_id, signature in pairs:
            try:
                public = self.registry.public_key(signer_id)
            except CryptoError:
                return False
            items.append((public, digest, signature))
        return self.scheme.batch_verify(items)

    def find_invalid_digest(
        self, domain: str, message: bytes, pairs: Sequence[Tuple[int, bytes]]
    ) -> List[int]:
        """Indices of the invalid ``(signer_id, signature)`` pairs.

        Unknown signer ids are reported as invalid alongside signatures
        the scheme's bisection attributes.
        """
        digest = _domain_hash_cached(domain, message)
        unknown: List[int] = []
        items = []
        item_index = []
        for idx, (signer_id, signature) in enumerate(pairs):
            try:
                public = self.registry.public_key(signer_id)
            except CryptoError:
                unknown.append(idx)
                continue
            items.append((public, digest, signature))
            item_index.append(idx)
        bad = [item_index[i] for i in self.scheme.find_invalid(items)]
        return sorted(unknown + bad)

    def aggregate_digest(
        self, domain: str, message: bytes, pairs: Sequence[Tuple[int, bytes]]
    ) -> bytes:
        """Aggregate ``(signer_id, signature)`` pairs over one digest."""
        digest = _domain_hash_cached(domain, message)
        publics = self._resolve_publics([signer_id for signer_id, _ in pairs])
        if publics is None:
            raise CryptoError("aggregate includes an unknown signer id")
        return self.scheme.aggregate(publics, digest, [sig for _, sig in pairs])

    def verify_aggregate_digest(
        self, signer_ids: Sequence[int], domain: str, message: bytes, aggregate: bytes
    ) -> bool:
        """Verify an aggregate produced by :meth:`aggregate_digest`."""
        publics = self._resolve_publics(signer_ids)
        if publics is None:
            return False
        digest = _domain_hash_cached(domain, message)
        return self.scheme.verify_aggregate(publics, digest, aggregate)


#: Quorum checks hash the same (domain, signing-bytes) pair once per
#: signature; memoizing the domain hash removes the repeat SHA-256 work.
_domain_hash_cached = lru_cache(maxsize=1 << 10)(domain_hash)
