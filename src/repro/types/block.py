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

        The leaves are the transactions' encodings, which each of them
        already holds (``tx.wire``): nothing is encoded here, whether the
        payload was built locally or came off the wire.
        """
        return MerkleTree([tx.wire for tx in self.transactions]).root

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
        payload_size=encoded_size(payload),
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
        payload_size=encoded_size(EMPTY_PAYLOAD),
        payload_count=0,
        proposer=-1,
    )
    return Block(header=header, payload=EMPTY_PAYLOAD)
