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
from typing import Optional, Tuple

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

    def well_formed(self) -> bool:
        """Every field has exactly its declared type.

        The decoder checks a struct's field count, not its field types, so
        a header from the wire may hold any canonical value in any field;
        a handler checks this before it compares or does arithmetic on one.
        """
        return (
            type(self.epoch), type(self.height), type(self.parent),
            type(self.payload_root), type(self.payload_size),
            type(self.payload_count), type(self.proposer),
        ) == (int, int, bytes, bytes, int, int, int)

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
    def merkle_root(self) -> Optional[Digest]:
        """Merkle root the header commits to.

        The leaves are the transactions' encodings, which each of them
        already holds (``tx.wire``): nothing is encoded here, whether the
        payload was built locally or came off the wire.

        The decoder checks a struct's field count, not its field types, so
        ``transactions`` of a payload from the wire may be anything.  One
        that is not a tuple of :class:`Transaction` has no root — ``None``,
        which equals no header's commitment, so every path that checks a
        payload against a header refuses it before reading anything else.
        """
        transactions = self.transactions
        if type(transactions) is not tuple or not set(map(type, transactions)) <= {Transaction}:
            return None
        return MerkleTree([tx.wire for tx in transactions]).root

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

    def well_formed(self) -> bool:
        """A well-formed header and a payload, each of its declared type
        (the decoder does not type fields; see :meth:`BlockHeader.well_formed`)."""
        return (
            type(self.header) is BlockHeader
            and self.header.well_formed()
            and type(self.payload) is BlockPayload
        )

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
