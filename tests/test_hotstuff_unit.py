"""Chained HotStuff state-machine unit tests (fake context)."""

from __future__ import annotations

import pytest

from repro.baselines.hotstuff import NEWVIEW_DOMAIN, HotStuffReplica
from repro.codec import encode
from repro.config import ProtocolConfig
from repro.consensus.validators import ValidatorSet
from repro.errors import VerificationError
from repro.types.block import make_block
from repro.types.certificates import Certificate, Vote, genesis_qc
from repro.types.messages import HSNewViewMsg, HSProposalMsg, VoteMsg
from repro.types.transaction import make_transaction
from tests.conftest import FakeContext

N, F = 4, 1


@pytest.fixture
def setup(signers4):
    validators = ValidatorSet.partially_synchronous(N, F)
    config = ProtocolConfig(n=N, f=F, epoch_timeout=1.0)
    replica = HotStuffReplica(0, validators, config, signers4[0])
    ctx = FakeContext(node_id=0, n=N)
    ctx.bind_replica(replica)
    replica.on_start()
    return replica, ctx, signers4


def proposal(signer, view, height, justify, seq=0):
    txs = (make_transaction(8, seq, 0.0, 16),)
    block = make_block(view, height, justify.block_hash, txs, signer.replica_id)
    from repro.types.messages import PROPOSAL_DOMAIN, proposal_signing_bytes

    signature = signer.digest_and_sign(PROPOSAL_DOMAIN, proposal_signing_bytes(block.block_hash))
    return HSProposalMsg(block=block, signature=signature, justify=justify), block


def qc_over(signers, block, view=None):
    view = view if view is not None else block.epoch
    votes = tuple(
        Vote.create(s, "hotstuff", view, block.height, block.block_hash) for s in signers
    )
    return Certificate.assemble(votes, signers[0])


def gen_qc(replica):
    return genesis_qc("hotstuff", replica.store.genesis.block_hash)


class TestVoting:
    def test_votes_for_current_view_proposal(self, setup):
        replica, ctx, signers = setup
        msg, block = proposal(signers[1], 1, 1, gen_qc(replica))
        replica.handle(1, msg)
        votes = [(dst, m) for dst, m in ctx.sent if isinstance(m, VoteMsg)]
        assert len(votes) == 1
        dst, vote_msg = votes[0]
        assert dst == 2  # leader of view 2
        assert vote_msg.vote.block_hash == block.block_hash
        assert replica.view == 2  # voting ends the view

    def test_votes_once_per_view(self, setup):
        replica, ctx, signers = setup
        msg, _ = proposal(signers[1], 1, 1, gen_qc(replica))
        replica.handle(1, msg)
        replica.handle(1, msg)
        votes = [m for _, m in ctx.sent if isinstance(m, VoteMsg)]
        assert len(votes) == 1

    def test_rejects_non_leader_proposal(self, setup):
        replica, ctx, signers = setup
        msg, _ = proposal(signers[2], 1, 1, gen_qc(replica))  # 2 isn't leader(1)
        with pytest.raises(VerificationError):
            replica.on_proposal(2, msg)

    def test_rejects_bad_justify_linkage(self, setup):
        replica, ctx, signers = setup
        msg, block = proposal(signers[1], 1, 2, gen_qc(replica))  # height skips
        with pytest.raises(VerificationError):
            replica.on_proposal(1, msg)

    def test_safe_node_rule_blocks_stale_fork(self, setup):
        """Once locked, a proposal that neither extends the lock nor
        carries a higher justify is refused."""
        replica, ctx, signers = setup
        # Build a certified 2-chain to move the lock up.
        m1, b1 = proposal(signers[1], 1, 1, gen_qc(replica))
        replica.handle(1, m1)
        qc1 = qc_over(signers[1:], b1)
        m2, b2 = proposal(signers[2], 2, 2, qc1, seq=1)
        replica.handle(2, m2)
        qc2 = qc_over(signers[1:], b2)
        m3, b3 = proposal(signers[3], 3, 3, qc2, seq=2)
        replica.handle(3, m3)
        assert replica.locked_qc.rank >= (1, 1)
        votes_before = len([m for _, m in ctx.sent if isinstance(m, VoteMsg)])
        # A conflicting branch justified below the lock: must not vote.
        fork_msg, _ = proposal(signers[0], 4, 1, gen_qc(replica), seq=9)
        replica.view = 4
        replica.last_voted_view = 3
        replica.on_proposal(0, fork_msg)
        votes_after = len([m for _, m in ctx.sent if isinstance(m, VoteMsg)])
        assert votes_after == votes_before


class TestCommitRule:
    def test_three_chain_commits_head(self, setup):
        replica, ctx, signers = setup
        justify = gen_qc(replica)
        blocks = []
        for view in (1, 2, 3, 4):
            msg, block = proposal(signers[view % N], view, view, justify, seq=view)
            replica.handle(view % N, msg)
            blocks.append(block)
            justify = qc_over(signers[1:], block)
        # Seeing the proposal for view 4 (justified by QC(b3)) completes a
        # three-chain over b1-b2-b3 and commits b1... the fourth proposal's
        # justify certifies b3; chain b1←b2←b3 commits b1.
        assert replica.ledger.height >= 1
        assert replica.ledger.block_at(1).block_hash == blocks[0].block_hash

    def test_no_commit_without_direct_parents(self, setup):
        replica, ctx, signers = setup
        m1, b1 = proposal(signers[1], 1, 1, gen_qc(replica))
        replica.handle(1, m1)
        qc1 = qc_over(signers[1:], b1)
        # Views skip (timeout happened): b2 at view 3 extends b1 directly,
        # still a direct-parent chain → can commit once certified twice.
        m2, b2 = proposal(signers[3], 3, 2, qc1, seq=1)
        replica.handle(3, m2)
        assert replica.ledger.height == 0  # not enough chain yet


class TestNewView:
    def test_timeout_sends_new_view_to_next_leader(self, setup):
        replica, ctx, signers = setup
        ctx.fire_timer("pacemaker")
        sent = [(dst, m) for dst, m in ctx.sent if isinstance(m, HSNewViewMsg)]
        assert len(sent) == 1
        dst, msg = sent[0]
        assert msg.view == 2 and dst == 2
        assert replica.view == 2
        assert replica.view_timeouts == 1

    def test_leader_proposes_on_new_view_quorum(self, signers4):
        validators = ValidatorSet.partially_synchronous(N, F)
        config = ProtocolConfig(n=N, f=F)
        replica = HotStuffReplica(2, validators, config, signers4[2])  # leader of view 2
        ctx = FakeContext(node_id=2, n=N)
        ctx.bind_replica(replica)
        replica.on_start()
        replica.mempool.add(make_transaction(0, 0, 0.0, 16))  # avoid idle pacing
        for sender in (0, 1, 3):
            msg = HSNewViewMsg(
                sender=sender,
                view=2,
                high_qc=gen_qc(replica),
                signature=signers4[sender].digest_and_sign(NEWVIEW_DOMAIN, encode(2)),
            )
            replica.handle(sender, msg)
        proposals = [m for m in ctx.broadcasts if isinstance(m, HSProposalMsg)]
        assert len(proposals) == 1
        assert proposals[0].block.epoch == 2

    def test_bad_new_view_signature_rejected(self, setup):
        replica, ctx, signers = setup
        msg = HSNewViewMsg(sender=1, view=2, high_qc=gen_qc(replica), signature=b"\x00" * 64)
        with pytest.raises(VerificationError):
            replica.on_new_view(1, msg)
