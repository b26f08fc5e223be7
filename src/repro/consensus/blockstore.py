"""The block tree.

Stores headers (and, when available, payloads) indexed by block hash, and
answers the ancestry queries every chain-based protocol needs: "does X
extend Y", "give me the uncommitted chain from X down to Y".  Headers and
payloads arrive independently in AlterBFT, so the store tracks them
separately; a :class:`~repro.types.block.Block` is materialized on demand.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..crypto.hashing import Digest
from ..errors import BlockStoreError
from ..types.block import Block, BlockHeader, BlockPayload, genesis_block


class BlockStore:
    """Header/payload storage with ancestry queries."""

    def __init__(self) -> None:
        self.genesis = genesis_block()
        self._headers: Dict[Digest, BlockHeader] = {}
        self._payloads: Dict[Digest, BlockPayload] = {}
        #: Every height below this has been pruned (:meth:`prune_below`).
        self.floor = 0
        self.add_header(self.genesis.header)
        self.add_payload(self.genesis.block_hash, self.genesis.payload)

    # -- insertion -----------------------------------------------------------

    def add_header(self, header: BlockHeader) -> bool:
        """Store a header; returns False if it was already known."""
        block_hash = header.block_hash
        if block_hash in self._headers:
            return False
        self._headers[block_hash] = header
        return True

    def add_payload(self, block_hash: Digest, payload: BlockPayload) -> bool:
        """Store a payload for a block hash; returns False if known.

        The payload need not match a known header yet (it may arrive
        first); matching is the caller's job via
        :meth:`~repro.types.block.Block.validate_payload`.
        """
        if block_hash in self._payloads:
            return False
        self._payloads[block_hash] = payload
        return True

    def add_block(self, block: Block) -> bool:
        """Store header and payload together (baseline protocols)."""
        added = self.add_header(block.header)
        self.add_payload(block.block_hash, block.payload)
        return added

    # -- lookup ----------------------------------------------------------------

    def has_header(self, block_hash: Digest) -> bool:
        return block_hash in self._headers

    def has_payload(self, block_hash: Digest) -> bool:
        return block_hash in self._payloads

    def header(self, block_hash: Digest) -> BlockHeader:
        try:
            return self._headers[block_hash]
        except KeyError:
            raise BlockStoreError(f"unknown header {block_hash.hex()[:12]}") from None

    def payload(self, block_hash: Digest) -> BlockPayload:
        try:
            return self._payloads[block_hash]
        except KeyError:
            raise BlockStoreError(f"no payload for {block_hash.hex()[:12]}") from None

    def block(self, block_hash: Digest) -> Block:
        """Materialize a full block (raises if either half is missing)."""
        return Block(header=self.header(block_hash), payload=self.payload(block_hash))

    def get_header(self, block_hash: Digest) -> Optional[BlockHeader]:
        return self._headers.get(block_hash)

    def __len__(self) -> int:
        return len(self._headers)

    # -- ancestry ---------------------------------------------------------------

    def walk_ancestors(self, block_hash: Digest) -> Iterator[BlockHeader]:
        """Yield headers from ``block_hash`` down to (and incl.) genesis.

        Stops early if an ancestor header is missing (yields what exists).
        """
        current = self._headers.get(block_hash)
        while current is not None:
            yield current
            if current.height == 0:
                return
            current = self._headers.get(current.parent)

    def extends(self, descendant: Digest, ancestor: Digest) -> bool:
        """True iff ``ancestor`` lies on ``descendant``'s chain (or equal).

        Returns False when the chain between them has gaps in the store.
        """
        anc_header = self._headers.get(ancestor)
        if anc_header is None:
            return False
        for header in self.walk_ancestors(descendant):
            if header.block_hash == ancestor:
                return True
            if header.height <= anc_header.height:
                return False
        return False

    def chain_between(self, descendant: Digest, ancestor: Digest) -> List[BlockHeader]:
        """Headers from just above ``ancestor`` up to ``descendant``, ordered
        by increasing height.  Raises if the chain is broken or unrelated."""
        anc_header = self._headers.get(ancestor)
        floor = anc_header.height if anc_header is not None else -1
        chain: List[BlockHeader] = []
        for header in self.walk_ancestors(descendant):
            if header.block_hash == ancestor:
                chain.reverse()
                return chain
            if header.height <= floor:
                break  # walked past the ancestor's height: unrelated fork
            chain.append(header)
        raise BlockStoreError("descendant does not extend ancestor (or chain has gaps)")

    # -- garbage collection -------------------------------------------------------

    def prune_below(self, height: int) -> List[Digest]:
        """Drop every header/payload strictly below ``height``.

        Called once a checkpoint certificate proves the prefix below
        ``height`` is committed cluster-wide: fork siblings and ancestors
        alike can never be needed again (``walk_ancestors`` from any live
        block simply stops at the pruned boundary).  Returns the removed
        hashes so callers can drop their own per-block indexes.
        """
        self.floor = max(self.floor, height)
        removed = [
            block_hash
            for block_hash, header in self._headers.items()
            if header.height < height
        ]
        for block_hash in removed:
            del self._headers[block_hash]
            self._payloads.pop(block_hash, None)
        return removed

    def missing_payloads(self, block_hash: Digest, stop: Digest) -> List[Digest]:
        """Hashes on the chain (stop, block_hash] whose payloads are absent."""
        missing = []
        for header in self.chain_between(block_hash, stop):
            if header.block_hash not in self._payloads:
                missing.append(header.block_hash)
        return missing
