"""Cluster key management.

:func:`build_cluster_keys` is the one entry point used by the experiment
harness: given a scheme name and the replica count, it derives a
deterministic key pair per replica, registers them all in a shared
:class:`~repro.crypto.signatures.KeyRegistry`, and returns one
:class:`~repro.crypto.signatures.Signer` per replica.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ConfigError
from .schnorr import SchnorrSignatureScheme
from .signatures import HashSignatureScheme, KeyRegistry, SignatureScheme, Signer


def make_scheme(
    name: str, registry: KeyRegistry, cache_size: Optional[int] = None
) -> SignatureScheme:
    """Instantiate a signature scheme by registry name.  ``cache_size``
    bounds its verify cache (None: the default; 0: off)."""
    if name == "hashsig":
        return HashSignatureScheme(registry, cache_size=cache_size)
    if name == "schnorr":
        return SchnorrSignatureScheme(cache_size=cache_size)
    raise ConfigError(f"unknown signature scheme {name!r}")


def build_cluster_keys(
    scheme_name: str,
    n: int,
    seed: bytes = b"repro-cluster",
    cache_size: Optional[int] = None,
) -> List[Signer]:
    """Derive and register keys for an ``n``-replica cluster.

    Returns one :class:`Signer` per replica id ``0..n-1``, all sharing one
    registry (the simulated PKI) and one scheme, built with ``cache_size``.
    """
    if n < 1:
        raise ConfigError("cluster must have at least one replica")
    registry = KeyRegistry()
    scheme = make_scheme(scheme_name, registry, cache_size)
    signers: List[Signer] = []
    for replica_id in range(n):
        pair = scheme.keygen(seed + replica_id.to_bytes(4, "big"))
        registry.register(replica_id, pair)
        signers.append(Signer(scheme, registry, replica_id, pair))
    return signers
