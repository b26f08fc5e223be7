"""Blocks: headers, payloads, and the genesis block.

The header/payload split is the heart of AlterBFT's hybrid synchrony:
headers are a few hundred bytes (a *small* message under the model) while
payloads carry the transactions (a *large* message).  The header commits
to its payload with a Merkle root, so votes on the header hash certify the
full block content.  Baseline protocols ship the two together as one
large proposal but reuse the same structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from ..codec import encode, encoded_size, register
from ..crypto.hashing import Digest, ZERO_DIGEST, domain_hash, short_hex
from ..crypto.merkle import MerkleTree
from .transaction import Transaction

#: Height of the genesis block.
GENESIS_HEIGHT = 0

#: Epoch recorded in the genesis header (real epochs start at 1).
GENESIS_EPOCH = 0

#: Where a decoded :class:`BlockPayload` keeps its frame and the offsets
#: of its transactions in it, until the Merkle root has been computed.
_WIRE_SOURCE = "_wire_source"


@register(11)
@dataclass(frozen=True)
class BlockHeader:
    """Signed-over block metadata (a *small* message).

    Attributes:
        epoch: epoch/view in which the block was proposed.
        height: chain height (parent height + 1).
        parent: digest of the parent block's header.
        payload_root: Merkle root over the payload's transactions.
        payload_size: serialized payload size in bytes, so a replica can
            budget fetch bandwidth before the payload arrives.
        payload_count: number of transactions in the payload.
        proposer: replica id of the proposing leader.
    """

    epoch: int
    height: int
    parent: Digest
    payload_root: Digest
    payload_size: int
    payload_count: int
    proposer: int

    @cached_property
    def block_hash(self) -> Digest:
        """Digest identifying the block (votes sign this)."""
        return domain_hash("block-header", encode(self))

    @cached_property
    def encoded_size(self) -> int:
        """Serialized size in bytes."""
        return encoded_size(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Header(e={self.epoch}, h={self.height}, "
            f"{short_hex(self.block_hash)}, txs={self.payload_count})"
        )


@register(12)
@dataclass(frozen=True)
class BlockPayload:
    """The transactions of one block (a *large* message)."""

    transactions: Tuple[Transaction, ...]

    @cached_property
    def merkle_root(self) -> Digest:
        """Merkle root the header commits to.

        The leaves are ``tx.encoded()``.  A payload that came off the wire
        already has them, as slices of the frame it was decoded from (see
        :meth:`_decoded_from`); only one built locally encodes them.
        """
        source = self.__dict__.pop(_WIRE_SOURCE, None)
        if source is not None:
            data, marks = source
            leaves = [data[start:end] for start, end in zip(marks, marks[1:])]
        else:
            leaves = [tx.encoded() for tx in self.transactions]
        return MerkleTree(leaves).root

    def _decoded_from(self, data: bytes, start: int, end: int, bounds: tuple) -> None:
        """Codec hook: remember the frame until the root has been taken.

        The decoder is canonical, so the bytes each transaction was decoded
        from *are* ``tx.encoded()``; hashing them spares a follower one
        re-encode per transaction per block.  The frame is held by
        reference, not copied, and let go on first use — which every path
        that accepts a payload reaches, to check it against a header.
        """
        marks = bounds[0]
        if marks is not None:  # ``transactions`` arrived as a tuple
            self.__dict__[_WIRE_SOURCE] = (data, marks)

    @cached_property
    def encoded_size(self) -> int:
        """Serialized size in bytes (size-only path; no bytes built)."""
        return encoded_size(self)

    def __len__(self) -> int:
        return len(self.transactions)


#: Payload of the genesis block (empty).
EMPTY_PAYLOAD = BlockPayload(transactions=())


@register(13)
@dataclass(frozen=True)
class Block:
    """A header together with its payload."""

    header: BlockHeader
    payload: BlockPayload

    @property
    def block_hash(self) -> Digest:
        return self.header.block_hash

    @property
    def height(self) -> int:
        return self.header.height

    @property
    def epoch(self) -> int:
        return self.header.epoch

    @property
    def parent(self) -> Digest:
        return self.header.parent

    @cached_property
    def encoded_size(self) -> int:
        """Serialized size in bytes, computed once per block object."""
        return encoded_size(self)

    def validate_payload(self) -> bool:
        """Check the payload matches the header's commitment."""
        return (
            self.payload.merkle_root == self.header.payload_root
            and len(self.payload) == self.header.payload_count
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Block({self.header!r})"


def make_block(
    epoch: int,
    height: int,
    parent: Digest,
    transactions: Tuple[Transaction, ...],
    proposer: int,
) -> Block:
    """Assemble a block, computing the payload commitment."""
    payload = BlockPayload(transactions=tuple(transactions))
    header = BlockHeader(
        epoch=epoch,
        height=height,
        parent=parent,
        payload_root=payload.merkle_root,
        payload_size=payload.encoded_size,
        payload_count=len(payload),
        proposer=proposer,
    )
    return Block(header=header, payload=payload)


def genesis_block() -> Block:
    """The well-known genesis block every replica starts from."""
    header = BlockHeader(
        epoch=GENESIS_EPOCH,
        height=GENESIS_HEIGHT,
        parent=ZERO_DIGEST,
        payload_root=EMPTY_PAYLOAD.merkle_root,
        payload_size=EMPTY_PAYLOAD.encoded_size,
        payload_count=0,
        proposer=-1,
    )
    return Block(header=header, payload=EMPTY_PAYLOAD)
