"""PBFT state-machine unit tests (fake context)."""

from __future__ import annotations

import pytest

from repro.baselines.pbft import (
    COMMIT_PHASE,
    PREPARE_PHASE,
    VIEWCHANGE_DOMAIN,
    PBFTReplica,
)
from repro.codec import encode
from repro.config import ProtocolConfig
from repro.consensus.validators import ValidatorSet
from repro.errors import VerificationError
from repro.types.block import genesis_block, make_block
from repro.types.certificates import Certificate, Vote
from repro.types.messages import (
    PBFTCommitMsg,
    PBFTNewViewMsg,
    PBFTPrepareMsg,
    PBFTPrePrepareMsg,
    PBFTViewChangeMsg,
)
from repro.types.transaction import make_transaction
from tests.conftest import FakeContext

N, F = 4, 1


@pytest.fixture
def setup(signers4):
    validators = ValidatorSet.partially_synchronous(N, F)
    config = ProtocolConfig(n=N, f=F, epoch_timeout=1.0)
    replica = PBFTReplica(0, validators, config, signers4[0])
    ctx = FakeContext(node_id=0, n=N)
    ctx.bind_replica(replica)
    replica.on_start()
    return replica, ctx, signers4


def preprepare(signer, view, seq, parent, txs=1):
    block = make_block(
        view,
        seq,
        parent,
        tuple(make_transaction(9, seq * 10 + i, 0.0, 16) for i in range(txs)),
        signer.replica_id,
    )
    from repro.types.messages import PROPOSAL_DOMAIN, proposal_signing_bytes

    signature = signer.digest_and_sign(PROPOSAL_DOMAIN, proposal_signing_bytes(block.block_hash))
    return PBFTPrePrepareMsg(view=view, seq=seq, block=block, signature=signature), block


def vote(signer, view, seq, block_hash, phase):
    return Vote.create(signer, "pbft", view, seq, block_hash, phase=phase)


class TestPrePrepare:
    def test_accepting_sends_prepare(self, setup):
        replica, ctx, signers = setup
        msg, block = preprepare(signers[1], 1, 1, genesis_block().block_hash)
        replica.handle(1, msg)
        prepares = [m for m in ctx.broadcasts if isinstance(m, PBFTPrepareMsg)]
        assert len(prepares) == 1
        assert prepares[0].vote.phase == PREPARE_PHASE

    def test_rejects_non_leader(self, setup):
        replica, ctx, signers = setup
        msg, _ = preprepare(signers[2], 1, 1, genesis_block().block_hash)
        with pytest.raises(VerificationError):
            replica.on_preprepare(2, msg)

    def test_rejects_chain_break(self, setup):
        replica, ctx, signers = setup
        msg, _ = preprepare(signers[1], 1, 1, b"\x11" * 32)  # wrong parent
        with pytest.raises(VerificationError):
            replica.on_preprepare(1, msg)

    def test_out_of_order_buffered_then_drained(self, setup):
        replica, ctx, signers = setup
        m1, b1 = preprepare(signers[1], 1, 1, genesis_block().block_hash)
        m2, b2 = preprepare(signers[1], 1, 2, b1.block_hash)
        replica.handle(1, m2)  # arrives first
        assert len([m for m in ctx.broadcasts if isinstance(m, PBFTPrepareMsg)]) == 0
        replica.handle(1, m1)
        assert len([m for m in ctx.broadcasts if isinstance(m, PBFTPrepareMsg)]) == 2

    def test_first_preprepare_per_slot_wins(self, setup):
        replica, ctx, signers = setup
        m1, _ = preprepare(signers[1], 1, 1, genesis_block().block_hash, txs=1)
        m1b, _ = preprepare(signers[1], 1, 1, genesis_block().block_hash, txs=2)
        replica.handle(1, m1)
        replica.handle(1, m1b)  # conflicting: ignored
        prepares = [m for m in ctx.broadcasts if isinstance(m, PBFTPrepareMsg)]
        assert len(prepares) == 1


class TestPhases:
    def drive_to_prepared(self, replica, ctx, signers, seq=1, parent=None):
        parent = parent if parent is not None else genesis_block().block_hash
        msg, block = preprepare(signers[1], 1, seq, parent)
        replica.handle(1, msg)
        for s in signers[1:3]:  # + own prepare = 3 = 2f+1
            replica.handle(s.replica_id, PBFTPrepareMsg(vote=vote(s, 1, seq, block.block_hash, PREPARE_PHASE)))
        return block

    def test_prepared_sends_commit(self, setup):
        replica, ctx, signers = setup
        self.drive_to_prepared(replica, ctx, signers)
        commits = [m for m in ctx.broadcasts if isinstance(m, PBFTCommitMsg)]
        assert len(commits) == 1

    def test_commit_quorum_executes(self, setup):
        replica, ctx, signers = setup
        block = self.drive_to_prepared(replica, ctx, signers)
        for s in signers[1:3]:
            replica.handle(s.replica_id, PBFTCommitMsg(vote=vote(s, 1, 1, block.block_hash, COMMIT_PHASE)))
        assert replica.ledger.height == 1
        assert replica.ledger.head.block_hash == block.block_hash

    def test_execution_strictly_in_order(self, setup):
        replica, ctx, signers = setup
        b1 = self.drive_to_prepared(replica, ctx, signers, seq=1)
        b2 = self.drive_to_prepared(replica, ctx, signers, seq=2, parent=b1.block_hash)
        # Commit quorum for seq 2 arrives first: must wait for seq 1.
        for s in signers[1:3]:
            replica.handle(s.replica_id, PBFTCommitMsg(vote=vote(s, 1, 2, b2.block_hash, COMMIT_PHASE)))
        assert replica.ledger.height == 0
        for s in signers[1:3]:
            replica.handle(s.replica_id, PBFTCommitMsg(vote=vote(s, 1, 1, b1.block_hash, COMMIT_PHASE)))
        assert replica.ledger.height == 2

    def test_orphan_certificates_adopted_late(self, setup):
        """Prepare/commit quorums forming before the pre-prepare arrives
        are kept and applied once the block shows up."""
        replica, ctx, signers = setup
        msg, block = preprepare(signers[1], 1, 1, genesis_block().block_hash)
        # All prepare votes arrive before the pre-prepare.
        for s in signers[1:4]:
            replica.handle(
                s.replica_id,
                PBFTPrepareMsg(vote=vote(s, 1, 1, block.block_hash, PREPARE_PHASE)),
            )
        assert 1 not in replica._prepared
        replica.handle(1, msg)
        assert 1 in replica._prepared

    def test_wrong_phase_rejected(self, setup):
        replica, ctx, signers = setup
        bad = PBFTPrepareMsg(vote=vote(signers[1], 1, 1, b"\x01" * 32, COMMIT_PHASE))
        with pytest.raises(VerificationError):
            replica.on_prepare(1, bad)


class TestViewChange:
    def test_timeout_broadcasts_view_change(self, setup):
        replica, ctx, signers = setup
        ctx.fire_timer("pacemaker")
        vcs = [m for m in ctx.broadcasts if isinstance(m, PBFTViewChangeMsg)]
        assert len(vcs) == 1
        assert vcs[0].new_view == 2
        assert replica.in_view_change

    def test_view_change_carries_prepared_evidence(self, setup):
        replica, ctx, signers = setup
        msg, block = preprepare(signers[1], 1, 1, genesis_block().block_hash)
        replica.handle(1, msg)
        for s in signers[1:3]:
            replica.handle(
                s.replica_id,
                PBFTPrepareMsg(vote=vote(s, 1, 1, block.block_hash, PREPARE_PHASE)),
            )
        ctx.fire_timer("pacemaker")
        [vc] = [m for m in ctx.broadcasts if isinstance(m, PBFTViewChangeMsg)]
        assert len(vc.prepared) == 1
        seq, qc, carried = vc.prepared[0]
        assert seq == 1 and carried.block_hash == block.block_hash

    def test_derive_reproposals_truncates_at_gap(self, signers4):
        b1 = make_block(1, 1, genesis_block().block_hash, (), 1)
        b3 = make_block(1, 3, b"\x07" * 32, (), 1)
        qc1 = Certificate.assemble(
            (vote(s, 1, 1, b1.block_hash, PREPARE_PHASE) for s in signers4[:3]), signers4[0], aggregate=False
        )
        qc3 = Certificate.assemble(
            (vote(s, 1, 3, b3.block_hash, PREPARE_PHASE) for s in signers4[:3]), signers4[0], aggregate=False
        )
        vc = PBFTViewChangeMsg(
            sender=0,
            new_view=2,
            last_committed=0,
            commit_proof=None,
            prepared=((1, qc1, b1), (3, qc3, b3)),
            signature=b"",
        )
        base, reproposals = PBFTReplica._derive_reproposals((vc,))
        assert base == 0
        assert [seq for seq, _ in reproposals] == [1]  # gap at 2 truncates

    def test_derive_reproposals_prefers_higher_view(self, signers4):
        b_old = make_block(1, 1, genesis_block().block_hash, (), 1)
        b_new = make_block(2, 1, genesis_block().block_hash, (), 2)
        qc_old = Certificate.assemble(
            (vote(s, 1, 1, b_old.block_hash, PREPARE_PHASE) for s in signers4[:3]), signers4[0], aggregate=False
        )
        qc_new = Certificate.assemble(
            (vote(s, 2, 1, b_new.block_hash, PREPARE_PHASE) for s in signers4[:3]), signers4[0], aggregate=False
        )
        vc1 = PBFTViewChangeMsg(0, 3, 0, None, ((1, qc_old, b_old),), b"")
        vc2 = PBFTViewChangeMsg(1, 3, 0, None, ((1, qc_new, b_new),), b"")
        _, reproposals = PBFTReplica._derive_reproposals((vc1, vc2))
        assert reproposals[0][1].block_hash == b_new.block_hash

    def test_bad_view_change_signature_rejected(self, setup):
        replica, ctx, signers = setup
        vc = PBFTViewChangeMsg(
            sender=1, new_view=2, last_committed=0, commit_proof=None, prepared=(), signature=b"\x00" * 64
        )
        with pytest.raises(VerificationError):
            replica.on_view_change(1, vc)

    def test_new_view_installs_and_resumes(self, setup):
        replica, ctx, signers = setup
        ctx.fire_timer("pacemaker")  # now in view change toward 2
        vcs = []
        for s in signers[:3]:
            vcs.append(
                PBFTViewChangeMsg(
                    sender=s.replica_id,
                    new_view=2,
                    last_committed=0,
                    commit_proof=None,
                    prepared=(),
                    signature=s.digest_and_sign(VIEWCHANGE_DOMAIN, encode((2, 0))),
                )
            )
        from repro.baselines.pbft import NEWVIEW_DOMAIN

        nv = PBFTNewViewMsg(
            new_view=2,
            view_changes=tuple(vcs),
            signature=signers[2].digest_and_sign(NEWVIEW_DOMAIN, encode(2)),
        )
        replica.handle(2, nv)
        assert replica.view == 2
        assert not replica.in_view_change
