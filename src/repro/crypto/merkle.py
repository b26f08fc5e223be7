"""Binary Merkle trees over transaction lists.

Block headers commit to their payload with a Merkle root rather than a
flat hash, so a replica can serve (and a light client can verify)
individual transactions with logarithmic proofs.  The tree uses
domain-separated leaf/node hashing to rule out second-preimage attacks
that splice an interior node in as a leaf.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..codec import register
from ..errors import CryptoError
from .hashing import Digest, sha256, ZERO_DIGEST

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def _leaf_hash(data: bytes) -> Digest:
    return sha256(_LEAF_PREFIX + data)


def _node_hash(left: Digest, right: Digest) -> Digest:
    return sha256(_NODE_PREFIX + left + right)


@register(41)
@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof for one leaf.

    Attributes:
        index: leaf position in the original sequence.
        path: sibling digests from leaf level to the root.  Each entry is
            (sibling_digest, sibling_is_right).
    """

    index: int
    path: Tuple[Tuple[Digest, bool], ...]


@register(42)
@dataclass(frozen=True)
class MerkleMultiProof:
    """Batch inclusion proof for a *set* of leaves.

    One compact proof covers all the named leaves: siblings that can be
    recomputed from the proven leaves themselves are omitted, so proving
    k adjacent leaves costs far fewer digests than k single-leaf paths.

    Attributes:
        leaf_count: total number of leaves in the tree (fixes the shape,
            including the odd-node self-pairing at each level).
        indexes: sorted, de-duplicated positions of the proven leaves.
        path: the uncomputable sibling digests, ordered level by level
            (leaf level first), left to right within each level —
            exactly the order :func:`verify_multiproof` consumes them.
    """

    leaf_count: int
    indexes: Tuple[int, ...]
    path: Tuple[Digest, ...]


class MerkleTree:
    """Merkle tree built once over a sequence of byte strings."""

    def __init__(self, leaves: Sequence[bytes]) -> None:
        self._count = len(leaves)
        if self._count == 0:
            self._levels: List[List[Digest]] = [[ZERO_DIGEST]]
            return
        # _leaf_hash and _node_hash, one comprehension per level: a bulk
        # block is a few hundred leaves, hashed by every replica.
        h = hashlib.sha256
        level = [h(_LEAF_PREFIX + leaf).digest() for leaf in leaves]
        levels = [level]
        while len(level) > 1:
            paired = level + level[-1:] if len(level) % 2 else level  # odd node: itself
            level = [
                h(_NODE_PREFIX + left + right).digest()
                for left, right in zip(paired[::2], paired[1::2])
            ]
            levels.append(level)
        self._levels = levels

    @property
    def root(self) -> Digest:
        """Root digest; ZERO_DIGEST for the empty tree."""
        return self._levels[-1][0]

    def __len__(self) -> int:
        return self._count

    def prove(self, index: int) -> MerkleProof:
        """Build an inclusion proof for the leaf at ``index``."""
        if not 0 <= index < self._count:
            raise CryptoError(f"leaf index {index} out of range 0..{self._count - 1}")
        path: List[Tuple[Digest, bool]] = []
        pos = index
        for level in self._levels[:-1]:
            sibling_is_right = pos % 2 == 0
            sibling_pos = pos + 1 if sibling_is_right else pos - 1
            if sibling_pos >= len(level):
                sibling_pos = pos  # odd node is paired with itself
            path.append((level[sibling_pos], sibling_is_right))
            pos //= 2
        return MerkleProof(index=index, path=tuple(path))

    def prove_multi(self, indexes: Sequence[int]) -> MerkleMultiProof:
        """Build one batch inclusion proof for the leaves at ``indexes``."""
        idxs = sorted(set(indexes))
        if not idxs:
            raise CryptoError("multiproof needs at least one leaf index")
        if idxs[0] < 0 or idxs[-1] >= self._count:
            raise CryptoError(f"leaf index out of range 0..{self._count - 1}: {idxs}")
        path: List[Digest] = []
        known = set(idxs)
        for level in self._levels[:-1]:
            width = len(level)
            for pos in sorted(known):
                sibling = pos ^ 1
                if sibling >= width:
                    continue  # odd node pairs with itself: recomputable
                if sibling not in known:
                    path.append(level[sibling])
            known = {pos // 2 for pos in known}
        return MerkleMultiProof(
            leaf_count=self._count, indexes=tuple(idxs), path=tuple(path)
        )


def merkle_root(leaves: Sequence[bytes]) -> Digest:
    """Convenience: root of a fresh tree over ``leaves``."""
    return MerkleTree(leaves).root


def verify_proof(root: Digest, leaf: bytes, proof: MerkleProof) -> bool:
    """Check an inclusion proof against a known root."""
    digest = _leaf_hash(leaf)
    for sibling, sibling_is_right in proof.path:
        if sibling_is_right:
            digest = _node_hash(digest, sibling)
        else:
            digest = _node_hash(sibling, digest)
    return digest == root


def verify_multiproof(
    root: Digest, leaves: Sequence[bytes], proof: MerkleMultiProof
) -> bool:
    """Check a batch inclusion proof against a known root.

    ``leaves`` must align positionally with ``proof.indexes`` (sorted,
    unique).  Recomputes the tree shape from ``proof.leaf_count``,
    consuming proof digests exactly where :meth:`MerkleTree.prove_multi`
    emitted them; any tampered leaf, index, or path digest fails.
    """
    idxs = proof.indexes
    if not idxs or len(leaves) != len(idxs):
        return False
    if list(idxs) != sorted(set(idxs)):
        return False
    if idxs[0] < 0 or idxs[-1] >= proof.leaf_count:
        return False
    nodes = {index: _leaf_hash(leaf) for index, leaf in zip(idxs, leaves)}
    supplied = iter(proof.path)
    width = proof.leaf_count
    try:
        while width > 1:
            parents: dict = {}
            for pos in sorted(nodes):
                if pos // 2 in parents:
                    continue  # pair already combined via its left node
                sibling = pos ^ 1
                if sibling >= width:
                    sibling_digest = nodes[pos]  # odd node pairs with itself
                elif sibling in nodes:
                    sibling_digest = nodes[sibling]
                else:
                    sibling_digest = next(supplied)
                if sibling < pos:
                    parent = _node_hash(sibling_digest, nodes[pos])
                else:
                    parent = _node_hash(nodes[pos], sibling_digest)
                parents[pos // 2] = parent
            nodes = parents
            width = (width + 1) // 2
    except StopIteration:
        return False  # proof path too short
    if next(supplied, None) is not None:
        return False  # unconsumed digests: proof path too long
    return nodes.get(0) == root


def combine_proofs(
    leaf_count: int, proofs: Mapping[int, MerkleProof]
) -> MerkleMultiProof:
    """Merge single-leaf proofs into one batch proof for their leaf set.

    A holder who learned each leaf with its own :class:`MerkleProof` (and
    never saw the full tree) can still serve a compact
    :class:`MerkleMultiProof`: at every level, the sibling of a combined
    node is exactly a path entry of some proof that runs through it.  The
    result is byte-identical to :meth:`MerkleTree.prove_multi` over the
    same indexes.
    """
    idxs = sorted(proofs)
    if not idxs:
        raise CryptoError("multiproof needs at least one leaf index")
    if idxs[0] < 0 or idxs[-1] >= leaf_count:
        raise CryptoError(f"leaf index out of range 0..{leaf_count - 1}: {idxs}")
    path: List[Digest] = []
    known = set(idxs)
    width = leaf_count
    level = 0
    while width > 1:
        for pos in sorted(known):
            sibling = pos ^ 1
            if sibling >= width or sibling in known:
                continue  # self-paired or recomputable from proven leaves
            donor = next(i for i in idxs if (i >> level) == pos)
            donor_path = proofs[donor].path
            if level >= len(donor_path):
                raise CryptoError("single-leaf proof too short for tree shape")
            path.append(donor_path[level][0])
        known = {pos // 2 for pos in known}
        width = (width + 1) // 2
        level += 1
    return MerkleMultiProof(
        leaf_count=leaf_count, indexes=tuple(idxs), path=tuple(path)
    )


def expand_multiproof(
    root: Digest, leaves: Sequence[bytes], proof: MerkleMultiProof
) -> Optional[Dict[int, MerkleProof]]:
    """Verify a batch proof and split it into per-leaf single proofs.

    Returns ``{index: MerkleProof}`` for every proven leaf if the proof
    checks out against ``root``, else ``None``.  The expansion lets a
    receiver re-serve any subset of the leaves later (via
    :func:`combine_proofs`) without ever holding the whole tree.
    """
    idxs = proof.indexes
    if not idxs or len(leaves) != len(idxs):
        return None
    if list(idxs) != sorted(set(idxs)):
        return None
    if idxs[0] < 0 or idxs[-1] >= proof.leaf_count:
        return None
    nodes = {index: _leaf_hash(leaf) for index, leaf in zip(idxs, leaves)}
    supplied = iter(proof.path)
    # Known digests per level (proven nodes plus supplied siblings), and
    # each level's width — enough to replay any leaf's single-leaf path.
    levels: List[Dict[int, Digest]] = []
    widths: List[int] = []
    width = proof.leaf_count
    try:
        while width > 1:
            level_nodes = dict(nodes)
            parents: Dict[int, Digest] = {}
            for pos in sorted(nodes):
                if pos // 2 in parents:
                    continue  # pair already combined via its left node
                sibling = pos ^ 1
                if sibling >= width:
                    sibling_digest = nodes[pos]  # odd node pairs with itself
                elif sibling in nodes:
                    sibling_digest = nodes[sibling]
                else:
                    sibling_digest = next(supplied)
                    level_nodes[sibling] = sibling_digest
                if sibling < pos:
                    parent = _node_hash(sibling_digest, nodes[pos])
                else:
                    parent = _node_hash(nodes[pos], sibling_digest)
                parents[pos // 2] = parent
            levels.append(level_nodes)
            widths.append(width)
            nodes = parents
            width = (width + 1) // 2
    except StopIteration:
        return None  # proof path too short
    if next(supplied, None) is not None:
        return None  # unconsumed digests: proof path too long
    if nodes.get(0) != root:
        return None
    result: Dict[int, MerkleProof] = {}
    for index in idxs:
        single: List[Tuple[Digest, bool]] = []
        pos = index
        for level_nodes, level_width in zip(levels, widths):
            sibling_is_right = pos % 2 == 0
            sibling = pos ^ 1
            if sibling >= level_width:
                sibling = pos  # odd node is paired with itself
            single.append((level_nodes[sibling], sibling_is_right))
            pos //= 2
        result[index] = MerkleProof(index=index, path=tuple(single))
    return result
