"""Ledger append-only invariants, validator sets, pacemaker back-off."""

from __future__ import annotations

import pytest

from repro.consensus.ledger import Ledger
from repro.consensus.pacemaker import Pacemaker
from repro.consensus.validators import ValidatorSet
from repro.errors import ConfigError, LedgerError, SafetyViolation
from repro.types.block import Block, BlockPayload, genesis_block, make_block
from repro.types.transaction import make_transaction
from tests.conftest import FakeContext


def block_chain(length: int):
    blocks = []
    parent = genesis_block().block_hash
    for height in range(1, length + 1):
        block = make_block(1, height, parent, (make_transaction(0, height, 0.0, 8),), 0)
        blocks.append(block)
        parent = block.block_hash
    return blocks


class TestLedger:
    def test_commit_chain(self):
        ledger = Ledger()
        blocks = block_chain(3)
        ledger.commit_chain(blocks, now=1.0)
        assert ledger.height == 3
        assert ledger.head == blocks[-1]
        assert ledger.block_at(2) == blocks[1]
        assert ledger.is_committed(blocks[0]) and ledger.is_committed(blocks[0].header)
        sibling = make_block(1, 1, genesis_block().block_hash, (), 0)
        assert not ledger.is_committed(sibling)  # same height, another block
        assert not ledger.is_committed(block_chain(4)[3])  # above the head

    def test_commit_listeners_in_order(self):
        ledger = Ledger()
        seen = []
        ledger.add_listener(lambda block, now: seen.append(block.height))
        ledger.commit_chain(block_chain(3), now=0.0)
        assert seen == [1, 2, 3]

    def test_skipping_height_rejected(self):
        ledger = Ledger()
        blocks = block_chain(2)
        with pytest.raises(SafetyViolation):
            ledger.commit(blocks[1], now=0.0)

    def test_wrong_parent_rejected(self):
        ledger = Ledger()
        stranger = make_block(1, 1, b"\x13" * 32, (), 0)
        with pytest.raises(SafetyViolation):
            ledger.commit(stranger, now=0.0)

    def test_payload_mismatch_rejected(self):
        ledger = Ledger()
        block = block_chain(1)[0]
        forged = Block(header=block.header, payload=BlockPayload(transactions=()))
        with pytest.raises(LedgerError):
            ledger.commit(forged, now=0.0)

    def test_block_at_out_of_range(self):
        with pytest.raises(LedgerError):
            Ledger().block_at(1)

    def test_committed_hash_at(self):
        ledger = Ledger()
        blocks = block_chain(1)
        ledger.commit(blocks[0], 0.0)
        assert ledger.committed_hash_at(1) == blocks[0].block_hash
        assert ledger.committed_hash_at(5) is None


class TestValidatorSet:
    def test_synchronous(self):
        v = ValidatorSet.synchronous(5, 2)
        assert v.quorum == 3
        assert v.leader_of(1) == 1
        assert v.leader_of(6) == 1
        assert v.is_valid_replica(4)
        assert not v.is_valid_replica(5)

    def test_partially_synchronous(self):
        v = ValidatorSet.partially_synchronous(7, 2)
        assert v.quorum == 5

    def test_insufficient_replicas_rejected(self):
        with pytest.raises(ConfigError):
            ValidatorSet.synchronous(2, 1)
        with pytest.raises(ConfigError):
            ValidatorSet.partially_synchronous(3, 1)

    def test_invalid_direct_construction(self):
        with pytest.raises(ConfigError):
            ValidatorSet(n=3, f=1, quorum=0)
        with pytest.raises(ConfigError):
            ValidatorSet(n=3, f=1, quorum=4)


class TestPacemaker:
    def make(self, growth=2.0):
        ctx = FakeContext()
        fired = []
        pm = Pacemaker(ctx, base_timeout=1.0, growth=growth, on_timeout=fired.append)
        return ctx, pm, fired

    def test_timeout_fires_for_current_epoch(self):
        ctx, pm, fired = self.make()
        pm.enter_epoch(1, made_progress=True)
        [timer] = [t for t in ctx.timers if not t.cancelled]
        assert timer.fire_at == 1.0
        pm.handle_timer(timer.payload)
        assert fired == [1]

    def test_stale_timer_ignored(self):
        ctx, pm, fired = self.make()
        pm.enter_epoch(1, made_progress=True)
        stale_payload = [t for t in ctx.timers if not t.cancelled][0].payload
        pm.enter_epoch(2, made_progress=False)
        pm.handle_timer(stale_payload)
        assert fired == []

    def test_backoff_grows_without_progress(self):
        ctx, pm, fired = self.make()
        pm.enter_epoch(1, made_progress=True)
        assert pm.current_timeout() == 1.0
        pm.enter_epoch(2, made_progress=False)
        assert pm.current_timeout() == 2.0
        pm.enter_epoch(3, made_progress=False)
        assert pm.current_timeout() == 4.0
        pm.enter_epoch(4, made_progress=True)
        assert pm.current_timeout() == 1.0

    def test_non_adaptive_fixed(self):
        ctx, pm, fired = self.make(growth=1.0)
        pm.enter_epoch(1, made_progress=False)
        pm.enter_epoch(2, made_progress=False)
        assert pm.current_timeout() == 1.0

    def test_record_progress_rearms(self):
        ctx, pm, fired = self.make()
        pm.enter_epoch(1, made_progress=True)
        first = [t for t in ctx.timers if not t.cancelled][0]
        ctx.advance(0.5)
        pm.record_progress()
        assert first.cancelled
        fresh = [t for t in ctx.timers if not t.cancelled][0]
        assert fresh.fire_at == 1.5

    def test_fires_once_per_epoch(self):
        ctx, pm, fired = self.make()
        pm.enter_epoch(1, made_progress=True)
        payload = [t for t in ctx.timers if not t.cancelled][0].payload
        pm.handle_timer(payload)
        pm.handle_timer(payload)
        assert fired == [1]

    def test_stop_cancels(self):
        ctx, pm, fired = self.make()
        pm.enter_epoch(1, made_progress=True)
        pm.stop()
        assert all(t.cancelled for t in ctx.timers)
