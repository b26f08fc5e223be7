"""Block store: header/payload storage and ancestry queries."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.blockstore import BlockStore
from repro.errors import BlockStoreError
from repro.types.block import make_block
from repro.types.transaction import make_transaction


def chain_of(store: BlockStore, length: int, epoch: int = 1, proposer: int = 0):
    """Build and insert a chain of full blocks; returns the block list."""
    blocks = []
    parent = store.genesis.block_hash
    for height in range(1, length + 1):
        block = make_block(
            epoch, height, parent, (make_transaction(0, height, 0.0, 16),), proposer
        )
        store.add_block(block)
        blocks.append(block)
        parent = block.block_hash
    return blocks


class TestStorage:
    def test_genesis_present(self):
        store = BlockStore()
        assert store.has_header(store.genesis.block_hash)
        assert store.has_payload(store.genesis.block_hash)
        assert len(store) == 1

    def test_add_header_idempotent(self):
        store = BlockStore()
        [block] = chain_of(store, 1)
        assert store.add_header(block.header) is False

    def test_payload_can_arrive_first(self):
        store = BlockStore()
        block = make_block(1, 1, store.genesis.block_hash, (), 0)
        assert store.add_payload(block.block_hash, block.payload)
        assert not store.has_header(block.block_hash)
        store.add_header(block.header)
        assert store.block(block.block_hash) == block

    def test_missing_lookups_raise(self):
        store = BlockStore()
        with pytest.raises(BlockStoreError):
            store.header(b"\x01" * 32)
        with pytest.raises(BlockStoreError):
            store.payload(b"\x01" * 32)

    def test_children(self):
        store = BlockStore()
        blocks = chain_of(store, 2)
        assert store.get_header(blocks[0].block_hash).parent == store.genesis.block_hash
        assert store.get_header(blocks[1].block_hash).parent == blocks[0].block_hash
        assert store.extends(blocks[1].block_hash, blocks[0].block_hash)


class TestAncestry:
    def test_extends_chain(self):
        store = BlockStore()
        blocks = chain_of(store, 5)
        assert store.extends(blocks[4].block_hash, store.genesis.block_hash)
        assert store.extends(blocks[4].block_hash, blocks[1].block_hash)
        assert store.extends(blocks[2].block_hash, blocks[2].block_hash)
        assert not store.extends(blocks[1].block_hash, blocks[4].block_hash)

    def test_extends_across_forks(self):
        store = BlockStore()
        blocks = chain_of(store, 3)
        fork = make_block(2, 2, blocks[0].block_hash, (), 1)
        store.add_block(fork)
        assert store.extends(fork.block_hash, blocks[0].block_hash)
        assert not store.extends(fork.block_hash, blocks[1].block_hash)
        assert not store.extends(blocks[2].block_hash, fork.block_hash)

    def test_chain_between(self):
        store = BlockStore()
        blocks = chain_of(store, 4)
        headers = store.chain_between(blocks[3].block_hash, blocks[0].block_hash)
        assert [h.height for h in headers] == [2, 3, 4]

    def test_chain_between_unrelated_raises(self):
        store = BlockStore()
        blocks = chain_of(store, 2)
        fork = make_block(2, 1, store.genesis.block_hash, (), 1)
        store.add_block(fork)
        with pytest.raises(BlockStoreError):
            store.chain_between(blocks[1].block_hash, fork.block_hash)

    def test_chain_between_gap_raises(self):
        store = BlockStore()
        parent_of_missing = make_block(1, 1, store.genesis.block_hash, (), 0)
        # Insert height 2 whose parent (height 1) is absent from the store.
        orphan = make_block(1, 2, parent_of_missing.block_hash, (), 0)
        store.add_header(orphan.header)
        with pytest.raises(BlockStoreError):
            store.chain_between(orphan.block_hash, store.genesis.block_hash)

    def test_missing_payloads(self):
        store = BlockStore()
        blocks = chain_of(store, 3)
        # Re-create a fresh store with only headers for block 2.
        fresh = BlockStore()
        for b in blocks:
            fresh.add_header(b.header)
        fresh.add_payload(blocks[0].block_hash, blocks[0].payload)
        fresh.add_payload(blocks[2].block_hash, blocks[2].payload)
        missing = fresh.missing_payloads(blocks[2].block_hash, fresh.genesis.block_hash)
        assert missing == [blocks[1].block_hash]

    def test_walk_ancestors_stops_at_gap(self):
        store = BlockStore()
        blocks = chain_of(store, 1)
        outside = make_block(1, 2, b"\x42" * 32, (), 0)
        store.add_header(outside.header)
        seen = list(store.walk_ancestors(outside.block_hash))
        assert [h.height for h in seen] == [2]


class TestPruning:
    def test_prune_below_drops_prefix(self):
        store = BlockStore()
        blocks = chain_of(store, 5)
        removed = store.prune_below(3)
        assert set(removed) == {store.genesis.block_hash} | {
            b.block_hash for b in blocks[:2]
        }
        for b in blocks[:2]:
            assert not store.has_header(b.block_hash)
            assert not store.has_payload(b.block_hash)
        for b in blocks[2:]:
            assert store.has_header(b.block_hash)

    def test_prune_below_removes_fork_siblings(self):
        store = BlockStore()
        blocks = chain_of(store, 4)
        # A fork sibling at height 2, off the committed chain.
        fork = make_block(2, 2, blocks[0].block_hash, (), 1)
        store.add_block(fork)
        removed = store.prune_below(3)
        assert fork.block_hash in removed
        assert not store.has_header(fork.block_hash)
        # The surviving suffix keeps its parent links.
        assert store.get_header(blocks[3].block_hash).parent == blocks[2].block_hash
        assert store.extends(blocks[3].block_hash, blocks[2].block_hash)

    def test_walk_ancestors_stops_at_pruned_boundary(self):
        store = BlockStore()
        blocks = chain_of(store, 6)
        store.prune_below(3)
        seen = list(store.walk_ancestors(blocks[5].block_hash))
        assert [h.height for h in seen] == [6, 5, 4, 3]

    def test_prune_below_zero_is_noop(self):
        store = BlockStore()
        blocks = chain_of(store, 3)
        assert store.prune_below(0) == []
        assert store.has_header(store.genesis.block_hash)
        assert all(store.has_header(b.block_hash) for b in blocks)


@settings(max_examples=50, deadline=None)
@given(
    length=st.integers(min_value=1, max_value=12),
    lo=st.integers(min_value=0, max_value=11),
    hi=st.integers(min_value=0, max_value=11),
)
def test_chain_between_property(length, lo, hi):
    lo, hi = sorted((lo % length, hi % length))
    store = BlockStore()
    blocks = chain_of(store, length)
    if lo == hi:
        assert store.chain_between(blocks[hi].block_hash, blocks[lo].block_hash) == []
        return
    headers = store.chain_between(blocks[hi].block_hash, blocks[lo].block_hash)
    assert [h.height for h in headers] == list(range(lo + 2, hi + 2))
