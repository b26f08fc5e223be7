"""AlterBFT state-machine unit tests (single replica, fake context)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.codec import decode, encode
from repro.config import ProtocolConfig
from repro.consensus.context import SimContext
from repro.consensus.validators import ValidatorSet
from repro.core.protocol import ACTIVE, QUITTING, AlterBFTReplica
from repro.crypto.keystore import build_cluster_keys
from repro.errors import CodecError, VerificationError
from repro.net.delay import UniformDelayModel
from repro.net.simnet import SimNetwork
from repro.sim.rng import RngFactory
from repro.sim.scheduler import Scheduler
from repro.types.block import make_block
from repro.types.certificates import (
    AggregateBlameCertificate,
    AggregateQuorumCertificate,
    Blame,
    Certificate,
    Vote,
    genesis_qc,
)
from repro.types.messages import (
    BlameCertMsg,
    BlameMsg,
    BlockRangeResponseMsg,
    EquivocationProofMsg,
    PayloadMsg,
    PayloadRequestMsg,
    PayloadResponseMsg,
    ProposalHeaderMsg,
    StatusMsg,
    VoteMsg,
)
from repro.types.transaction import make_transaction
from tests.conftest import FakeContext

DELTA = 0.01


@pytest.fixture
def setup(signers3, validators3):
    config = ProtocolConfig(n=3, f=1, delta=DELTA, epoch_timeout=1.0)
    replica = AlterBFTReplica(0, validators3, config, signers3[0])
    ctx = FakeContext(node_id=0, n=3)
    ctx.bind_replica(replica)
    replica.on_start()
    return replica, ctx, signers3


def make_proposal(signer, epoch, height, justify, seq=0, txcount=1):
    """A signed proposal (header msg, payload msg, block) from `signer`."""
    txs = tuple(make_transaction(9, seq + i, 0.0, 16) for i in range(txcount))
    block = make_block(epoch, height, justify.block_hash, txs, signer.replica_id)
    from repro.crypto.hashing import domain_hash
    from repro.types.messages import PROPOSAL_DOMAIN, proposal_signing_bytes

    signature = signer.digest_and_sign(PROPOSAL_DOMAIN, proposal_signing_bytes(block.block_hash))
    header_msg = ProposalHeaderMsg(header=block.header, signature=signature, justify=justify)
    payload_msg = PayloadMsg(
        epoch=epoch, height=height, block_hash=block.block_hash, payload=block.payload
    )
    return header_msg, payload_msg, block


def qc_over(signers, block, phase=0):
    votes = tuple(
        Vote.create(s, "alterbft", block.epoch, block.height, block.block_hash, phase=phase)
        for s in signers
    )
    return Certificate.assemble(votes, signers[0])


def gen_qc(replica):
    return genesis_qc("alterbft", replica.store.genesis.block_hash)


class TestVoting:
    def test_votes_after_header_and_payload(self, setup):
        replica, ctx, signers = setup
        header_msg, payload_msg, block = make_proposal(signers[1], 1, 1, gen_qc(replica))
        replica.handle(1, header_msg)
        assert not ctx.sent_of_type(VoteMsg), "must not vote before payload"
        replica.handle(1, payload_msg)
        votes = ctx.sent_of_type(VoteMsg)
        assert len(votes) == 1
        assert votes[0].vote.block_hash == block.block_hash
        assert "commit_wait" in ctx.pending_tags()

    def test_payload_first_then_header(self, setup):
        replica, ctx, signers = setup
        header_msg, payload_msg, block = make_proposal(signers[1], 1, 1, gen_qc(replica))
        replica.handle(1, payload_msg)
        replica.handle(1, header_msg)
        assert len(ctx.sent_of_type(VoteMsg)) == 1

    def test_vote_on_header_only_when_configured(self, signers3, validators3):
        config = ProtocolConfig(n=3, f=1, delta=DELTA, vote_requires_payload=False)
        replica = AlterBFTReplica(0, validators3, config, signers3[0])
        ctx = FakeContext()
        ctx.bind_replica(replica)
        replica.on_start()
        header_msg, _, _ = make_proposal(signers3[1], 1, 1, gen_qc(replica))
        replica.handle(1, header_msg)
        assert len(ctx.sent_of_type(VoteMsg)) == 1

    def test_votes_once_per_height(self, setup):
        replica, ctx, signers = setup
        header_msg, payload_msg, _ = make_proposal(signers[1], 1, 1, gen_qc(replica))
        replica.handle(1, header_msg)
        replica.handle(1, payload_msg)
        replica.handle(2, header_msg)  # duplicate via relay
        assert len(ctx.sent_of_type(VoteMsg)) == 1

    def test_epoch_chain_join_rule(self, setup):
        """A proposal justified by an epoch-e certificate may be the
        replica's first vote of epoch e: the certificate embeds an honest
        anchor vote, so the chain is already anchored."""
        replica, ctx, signers = setup
        h1, p1, b1 = make_proposal(signers[1], 1, 1, gen_qc(replica))
        qc1 = qc_over(signers[:2], b1)
        h2, p2, b2 = make_proposal(signers[1], 1, 2, qc1, seq=10)
        # Height 2 arrives first; its justify proves height 1 certified.
        replica.handle(1, h2)
        replica.handle(1, p2)
        votes = ctx.sent_of_type(VoteMsg)
        assert [v.vote.height for v in votes] == [2]
        # The earlier proposal arriving later adds no vote below our last.
        replica.handle(1, h1)
        replica.handle(1, p1)
        assert [v.vote.height for v in ctx.sent_of_type(VoteMsg)] == [2]

    def test_header_relayed_once(self, setup):
        """A follower relays a first-seen header once, as one offer, to the
        peers other than itself and the proposer."""
        replica, ctx, signers = setup
        header_msg, _, _ = make_proposal(signers[1], 1, 1, gen_qc(replica))
        replica.handle(1, header_msg)
        replica.handle(2, header_msg)
        relays = [(dst, m) for dst, m in ctx.sent if isinstance(m, ProposalHeaderMsg)]
        assert relays == [((2,), header_msg)]
        assert not [m for m in ctx.broadcasts if isinstance(m, ProposalHeaderMsg)]

    @pytest.mark.parametrize("payload_first", [False, True], ids=["not-yet-voted", "voted"])
    def test_a_relayed_copy_of_a_recorded_header_is_a_no_op(self, setup, payload_first):
        """A second delivery sends nothing, changes no replica state and
        makes no vote attempt; a tampered copy is still refused."""
        replica, ctx, signers = setup
        header_msg, payload_msg, _ = make_proposal(signers[1], 1, 1, gen_qc(replica))
        if payload_first:
            replica.handle(1, payload_msg)
        replica.handle(1, header_msg)
        assert len(ctx.sent_of_type(VoteMsg)) == int(payload_first)

        def state():
            return {
                name: value.copy() if isinstance(value, (dict, set, list)) else value
                for name, value in vars(replica).items()
            }

        before = state()
        sent, broadcasts, timers = len(ctx.sent), len(ctx.broadcasts), len(ctx.timers)
        attempts = []
        replica._maybe_vote_chain = attempts.append
        replica.handle(2, header_msg)
        del replica._maybe_vote_chain
        assert attempts == []
        assert state() == before
        assert (len(ctx.sent), len(ctx.broadcasts), len(ctx.timers)) == (sent, broadcasts, timers)
        forged = ProposalHeaderMsg(
            header=header_msg.header, signature=b"\x00" * 64, justify=header_msg.justify
        )
        with pytest.raises(VerificationError):
            replica.on_proposal_header(2, forged)

    def test_proposer_never_relays_its_own_header(self, signers3, validators3):
        config = ProtocolConfig(n=3, f=1, delta=DELTA, epoch_timeout=1.0, idle_propose_delay=0.0)
        leader = AlterBFTReplica(1, validators3, config, signers3[1])
        ctx = FakeContext(node_id=1, n=3)
        ctx.bind_replica(leader)
        leader.on_start()  # proposes height 1 and hears its own broadcast
        proposals = [m for m in ctx.broadcasts if isinstance(m, ProposalHeaderMsg)]
        assert [m.header.height for m in proposals] == [1]
        assert leader.store.has_header(proposals[0].header.block_hash)
        assert not [m for _, m in ctx.sent if isinstance(m, ProposalHeaderMsg)]


def test_split_headers_meet_at_every_follower_within_delta():
    """At n = 5 the leader of epoch 5 (replica 0) sends h1 to {1, 2} and h2
    to {3, 4}.  No relay goes back to the proposer, yet every honest replica
    holds both headers, and has recorded the equivocation, Δ after its
    first receipt."""
    n, epoch = 5, 5
    signers = build_cluster_keys("hashsig", n)
    config = ProtocolConfig(n=n, f=2, delta=DELTA, epoch_timeout=1.0)
    scheduler = Scheduler()
    network = SimNetwork(scheduler, UniformDelayModel(DELTA, DELTA), RngFactory(1))
    replicas = []
    for replica_id in range(n):
        replica = AlterBFTReplica(
            replica_id, ValidatorSet.synchronous(n, 2), config, signers[replica_id]
        )
        replica.epoch = epoch
        network.attach(replica_id, replica.handle)
        replica.bind(SimContext(replica_id, n, scheduler, network, replica.on_timer))
        replicas.append(replica)
    genesis = gen_qc(replicas[0])
    h1, _, _ = make_proposal(signers[0], epoch, 1, genesis, seq=0)
    h2, _, _ = make_proposal(signers[0], epoch, 1, genesis, seq=50)
    network.send(0, (1, 2), h1)
    network.send(0, (3, 4), h2)
    scheduler.run(until=2 * DELTA)  # first receipts at Δ, relays by 2Δ
    assert [epoch in r._equivocated for r in replicas] == [False, True, True, True, True]
    assert network.trace.counters["equivocation_detected"] == 4
    assert not replicas[0].store.has_header(h1.header.block_hash)


class TestHeaderValidation:
    def test_wrong_proposer_rejected(self, setup):
        replica, ctx, signers = setup
        header_msg, _, _ = make_proposal(signers[2], 1, 1, gen_qc(replica))  # 2 isn't leader(1)
        with pytest.raises(VerificationError):
            replica.on_proposal_header(2, header_msg)

    def test_bad_signature_rejected(self, setup):
        replica, ctx, signers = setup
        header_msg, _, _ = make_proposal(signers[1], 1, 1, gen_qc(replica))
        forged = ProposalHeaderMsg(
            header=header_msg.header, signature=b"\x00" * 64, justify=header_msg.justify
        )
        with pytest.raises(VerificationError):
            replica.on_proposal_header(1, forged)

    def test_justify_mismatch_rejected(self, setup):
        replica, ctx, signers = setup
        h1, p1, b1 = make_proposal(signers[1], 1, 1, gen_qc(replica))
        qc1 = qc_over(signers[:2], b1)
        h2, _, _ = make_proposal(signers[1], 1, 2, qc1)
        forged = ProposalHeaderMsg(header=h2.header, signature=h2.signature, justify=gen_qc(replica))
        with pytest.raises(VerificationError):
            replica.on_proposal_header(1, forged)

    def test_invalid_justify_qc_rejected(self, setup):
        replica, ctx, signers = setup
        h1, p1, b1 = make_proposal(signers[1], 1, 1, gen_qc(replica))
        fake_qc = AggregateQuorumCertificate(
            protocol="alterbft",
            phase=0,
            epoch=1,
            height=1,
            block_hash=b1.block_hash,
            signer_bits=0b11,
            agg_signature=b"\x00" * 32,
        )
        h2, _, _ = make_proposal(signers[1], 1, 2, fake_qc)
        with pytest.raises(VerificationError):
            replica.on_proposal_header(1, h2)


class TestEquivocation:
    def test_same_height_conflict(self, setup):
        replica, ctx, signers = setup
        h1, p1, _ = make_proposal(signers[1], 1, 1, gen_qc(replica), seq=0)
        h2, _, _ = make_proposal(signers[1], 1, 1, gen_qc(replica), seq=50)
        replica.handle(1, h1)
        replica.handle(1, h2)
        assert 1 in replica._equivocated
        assert len(ctx.sent_of_type(EquivocationProofMsg)) == 1
        assert len(ctx.sent_of_type(BlameMsg)) == 1
        # No votes once the epoch is poisoned.
        replica.handle(1, p1)
        assert not ctx.sent_of_type(VoteMsg)

    def test_two_anchor_conflict(self, setup):
        """Disjoint-height chains in one epoch are equivocation."""
        replica, ctx, signers = setup
        # Build a certified block at height 1 from an earlier epoch... use
        # genesis-anchored chains: anchor A at height 1, anchor B also
        # justified by a pre-epoch QC but at height 1 — that's same-height.
        # For distinct heights we need a second pre-epoch certificate:
        h1, p1, b1 = make_proposal(signers[1], 1, 1, gen_qc(replica))
        replica.handle(1, h1)
        qc1 = qc_over(signers[:2], b1)
        # Epoch 2: anchor X extends qc1 (height 2)...
        cert = Certificate.assemble(
            tuple(Blame.create(s, "alterbft", 1) for s in signers[:2]), signers[0]
        )
        replica.handle(1, BlameCertMsg(cert=cert))
        ctx.fire_timer("enter_epoch")
        assert replica.epoch == 2
        hx, _, _ = make_proposal(signers[2], 2, 2, qc1, seq=60)
        # ... and anchor Y extends genesis (height 1): two anchors.
        hy, _, _ = make_proposal(signers[2], 2, 1, gen_qc(replica), seq=70)
        replica.handle(2, hx)
        replica.handle(2, hy)
        assert 2 in replica._equivocated

    def test_parent_link_conflict(self, setup):
        replica, ctx, signers = setup
        h1, p1, b1 = make_proposal(signers[1], 1, 1, gen_qc(replica))
        replica.handle(1, h1)
        qc1 = qc_over(signers[:2], b1)
        # A height-2 proposal whose justify is an epoch-1 QC for a
        # *different* height-1 block the leader also signed.
        _, _, b1_alt = make_proposal(signers[1], 1, 1, gen_qc(replica), seq=99)
        qc1_alt = qc_over(signers[:2], b1_alt)
        h2_bad, _, _ = make_proposal(signers[1], 1, 2, qc1_alt, seq=5)
        replica.handle(1, h2_bad)
        assert 1 in replica._equivocated

    def test_valid_proof_accepted_from_peer(self, setup):
        replica, ctx, signers = setup
        h1, _, _ = make_proposal(signers[1], 1, 1, gen_qc(replica), seq=0)
        h2, _, _ = make_proposal(signers[1], 1, 1, gen_qc(replica), seq=50)
        proof = EquivocationProofMsg(first=h1, second=h2)
        replica.handle(2, proof)
        assert 1 in replica._equivocated
        assert len(ctx.sent_of_type(BlameMsg)) == 1

    def test_bogus_proof_rejected(self, setup):
        replica, ctx, signers = setup
        h1, _, b1 = make_proposal(signers[1], 1, 1, gen_qc(replica))
        qc1 = qc_over(signers[:2], b1)
        h2, _, _ = make_proposal(signers[1], 1, 2, qc1)  # legitimate chain
        with pytest.raises(VerificationError):
            replica.on_equivocation_proof(2, EquivocationProofMsg(first=h1, second=h2))


class TestCommit:
    def commit_block(self, replica, ctx, signers):
        header_msg, payload_msg, block = make_proposal(signers[1], 1, 1, gen_qc(replica))
        replica.handle(1, header_msg)
        replica.handle(1, payload_msg)
        for signer in signers[1:]:
            vote = Vote.create(signer, "alterbft", 1, 1, block.block_hash)
            replica.handle(signer.replica_id, VoteMsg(vote=vote))
        return block

    def test_commit_after_clean_window(self, setup):
        replica, ctx, signers = setup
        block = self.commit_block(replica, ctx, signers)
        assert replica.ledger.height == 0
        ctx.fire_timer("commit_wait")
        assert replica.ledger.height == 1
        assert replica.ledger.head.block_hash == block.block_hash

    def test_no_commit_without_qc(self, setup):
        replica, ctx, signers = setup
        header_msg, payload_msg, block = make_proposal(signers[1], 1, 1, gen_qc(replica))
        replica.handle(1, header_msg)
        replica.handle(1, payload_msg)  # replica's own vote only: no quorum
        ctx.fire_timer("commit_wait")
        assert replica.ledger.height == 0
        # The QC arriving later completes the commit.
        vote = Vote.create(signers[1], "alterbft", 1, 1, block.block_hash)
        replica.handle(1, VoteMsg(vote=vote))
        assert replica.ledger.height == 1

    def test_no_commit_when_equivocated(self, setup):
        replica, ctx, signers = setup
        self.commit_block(replica, ctx, signers)
        h_alt, _, _ = make_proposal(signers[1], 1, 1, gen_qc(replica), seq=80)
        replica.handle(2, h_alt)  # conflict lands inside the window
        ctx.fire_timer("commit_wait")
        assert replica.ledger.height == 0

    def test_no_commit_after_blame_cert(self, setup):
        replica, ctx, signers = setup
        self.commit_block(replica, ctx, signers)
        cert = Certificate.assemble(
            tuple(Blame.create(s, "alterbft", 1) for s in signers[:2]), signers[0]
        )
        replica.handle(2, BlameCertMsg(cert=cert))
        ctx.fire_timer("commit_wait")
        assert replica.ledger.height == 0

    def test_commit_includes_ancestors(self, setup):
        replica, ctx, signers = setup
        h1, p1, b1 = make_proposal(signers[1], 1, 1, gen_qc(replica))
        replica.handle(1, h1)
        replica.handle(1, p1)
        qc1 = qc_over(signers[:2], b1)
        h2, p2, b2 = make_proposal(signers[1], 1, 2, qc1, seq=10)
        replica.handle(1, h2)
        replica.handle(1, p2)
        for signer in signers[1:]:
            replica.handle(
                signer.replica_id,
                VoteMsg(vote=Vote.create(signer, "alterbft", 1, 2, b2.block_hash)),
            )
        ctx.fire_timer("commit_wait", index=1)  # the height-2 window
        assert replica.ledger.height == 2

    def test_window_of_a_committed_block_without_its_qc_is_discarded(self, setup):
        """A block committed as an ancestor may have its certificate
        released before its own window elapses; the window must go, not
        wait for a certificate that is no longer kept."""
        replica, ctx, signers = setup

        def certify(block):
            for signer in signers[1:]:
                vote = Vote.create(signer, "alterbft", 1, block.height, block.block_hash)
                replica.handle(signer.replica_id, VoteMsg(vote=vote))

        h1, p1, b1 = make_proposal(signers[1], 1, 1, gen_qc(replica))
        replica.handle(1, h1)
        replica.handle(1, p1)
        certify(b1)
        assert replica.qc_for(0, 1, 1, b1.block_hash) is not None
        h2, p2, b2 = make_proposal(signers[1], 1, 2, qc_over(signers[:2], b1), seq=10)
        replica.handle(1, h2)
        replica.handle(1, p2)
        certify(b2)
        ctx.fire_timer("commit_wait", index=1)  # the height-2 window commits both
        assert replica.ledger.height == 2
        replica.votes.certified.pop(("alterbft", 0, 1, 1, b1.block_hash), None)  # released
        ctx.fire_timer("commit_wait", index=0)  # the height-1 window, late
        assert replica._window_clean == set()


class TestEpochChange:
    def test_blame_cert_quits_epoch(self, setup):
        replica, ctx, signers = setup
        cert = Certificate.assemble(
            tuple(Blame.create(s, "alterbft", 1) for s in signers[:2]), signers[0]
        )
        replica.handle(2, BlameCertMsg(cert=cert))
        assert replica.state == QUITTING
        # Gossip: the certificate is re-broadcast once.
        assert len(ctx.sent_of_type(BlameCertMsg)) == 1
        ctx.fire_timer("enter_epoch")
        assert replica.epoch == 2 and replica.state == ACTIVE
        # Status goes to the new leader (replica 2).
        statuses = [(dst, m) for dst, m in ctx.sent if isinstance(m, StatusMsg)]
        assert statuses and statuses[0][0] == 2

    def test_epoch_timeout_sends_blame(self, setup):
        replica, ctx, signers = setup
        ctx.fire_timer("pacemaker")
        blames = ctx.sent_of_type(BlameMsg)
        assert len(blames) == 1 and blames[0].blame.epoch == 1

    def test_blames_accumulate_into_cert(self, setup):
        replica, ctx, signers = setup
        ctx.fire_timer("pacemaker")  # own blame (handled via loopback)
        replica.handle(1, BlameMsg(blame=Blame.create(signers[1], "alterbft", 1)))
        assert replica.state == QUITTING

    def test_invalid_blame_cert_rejected(self, setup):
        replica, ctx, signers = setup
        bogus = AggregateBlameCertificate(
            protocol="alterbft", epoch=1, signer_bits=0b1, agg_signature=b"\x00" * 32
        )
        with pytest.raises(VerificationError):
            replica.on_blame_cert(2, BlameCertMsg(cert=bogus))

    def test_future_epoch_header_buffered(self, setup):
        replica, ctx, signers = setup
        h1, p1, b1 = make_proposal(signers[1], 1, 1, gen_qc(replica))
        replica.handle(1, h1)
        qc1 = qc_over(signers[:2], b1)
        h_future, p_future, _ = make_proposal(signers[2], 2, 2, qc1, seq=30)
        replica.handle(2, h_future)
        assert not replica.store.has_header(h_future.header.block_hash)
        cert = Certificate.assemble(
            tuple(Blame.create(s, "alterbft", 1) for s in signers[:2]), signers[0]
        )
        replica.handle(2, BlameCertMsg(cert=cert))
        ctx.fire_timer("enter_epoch")
        assert replica.store.has_header(h_future.header.block_hash)

    def test_anchor_rule_rejects_stale_justify(self, setup):
        """First vote of an epoch requires justify ≥ entry-time knowledge."""
        replica, ctx, signers = setup
        h1, p1, b1 = make_proposal(signers[1], 1, 1, gen_qc(replica))
        replica.handle(1, h1)
        replica.handle(1, p1)  # votes for height 1
        qc1 = qc_over(signers[:2], b1)
        replica.handle(1, VoteMsg(vote=Vote.create(signers[1], "alterbft", 1, 1, b1.block_hash)))
        assert replica.high_qc.rank == (1, 1)
        cert = Certificate.assemble(
            tuple(Blame.create(s, "alterbft", 1) for s in signers[:2]), signers[0]
        )
        replica.handle(2, BlameCertMsg(cert=cert))
        ctx.fire_timer("enter_epoch")
        votes_before = len(ctx.sent_of_type(VoteMsg))
        # Epoch-2 leader proposes extending GENESIS, ignoring qc1: stale.
        h_bad, p_bad, _ = make_proposal(signers[2], 2, 1, gen_qc(replica), seq=40)
        replica.handle(2, h_bad)
        replica.handle(2, p_bad)
        assert len(ctx.sent_of_type(VoteMsg)) == votes_before


class TestPayloadRepair:
    def test_fetch_timer_requests_payload(self, setup):
        replica, ctx, signers = setup
        header_msg, _, block = make_proposal(signers[1], 1, 1, gen_qc(replica))
        replica.handle(1, header_msg)
        ctx.fire_timer("payload_fetch")
        requests = ctx.sent_of_type(PayloadRequestMsg)
        assert requests and requests[0].block_hash == block.block_hash

    def test_serves_payload_requests(self, setup):
        replica, ctx, signers = setup
        header_msg, payload_msg, block = make_proposal(signers[1], 1, 1, gen_qc(replica))
        replica.handle(1, header_msg)
        replica.handle(1, payload_msg)
        replica.handle(2, PayloadRequestMsg(block_hash=block.block_hash, height=1))
        responses = [m for dst, m in ctx.sent if isinstance(m, PayloadResponseMsg) and dst == 2]
        assert len(responses) == 1

    def test_mismatched_payload_rejected(self, setup):
        replica, ctx, signers = setup
        header_msg, _, block = make_proposal(signers[1], 1, 1, gen_qc(replica))
        replica.handle(1, header_msg)
        _, wrong_payload, _ = make_proposal(signers[1], 1, 1, gen_qc(replica), seq=77)
        forged = PayloadMsg(
            epoch=1, height=1, block_hash=block.block_hash, payload=wrong_payload.payload
        )
        with pytest.raises(VerificationError):
            replica.on_payload(1, forged)
        assert not ctx.sent_of_type(VoteMsg)


class TestIllTypedFields:
    """A peer can put any canonical value where a header or payload
    belongs.  The codec holds each field to its annotation, so each such
    message is a ``CodecError`` at decode and never reaches a handler."""

    @staticmethod
    def assert_refused(msg):
        with pytest.raises(CodecError):
            decode(encode(msg))

    def test_header_that_is_not_a_header(self, setup):
        replica, ctx, signers = setup
        header_msg, _, _ = make_proposal(signers[1], 1, 1, gen_qc(replica))
        self.assert_refused(
            ProposalHeaderMsg(header=5, signature=header_msg.signature, justify=gen_qc(replica))
        )

    def test_header_with_an_ill_typed_field(self, setup):
        replica, ctx, signers = setup
        header_msg, _, _ = make_proposal(signers[1], 1, 1, gen_qc(replica))
        header = dataclasses.replace(header_msg.header, epoch="1")
        self.assert_refused(dataclasses.replace(header_msg, header=header))

    @pytest.mark.parametrize("member", ["not-a-proposal", "not-a-header"])
    def test_equivocation_proof_with_a_junk_member(self, setup, member):
        replica, ctx, signers = setup
        h1, _, _ = make_proposal(signers[1], 1, 1, gen_qc(replica), seq=0)
        junk = 5 if member == "not-a-proposal" else dataclasses.replace(h1, header=5)
        self.assert_refused(EquivocationProofMsg(first=h1, second=junk))
        assert 1 not in replica._equivocated

    def test_junk_payload_before_its_header_is_not_stored(self, setup):
        """Stored, the junk would trip the honest header's vote later."""
        replica, ctx, signers = setup
        header_msg, payload_msg, block = make_proposal(signers[1], 1, 1, gen_qc(replica))
        self.assert_refused(dataclasses.replace(payload_msg, payload=5))
        assert not replica.store.has_payload(block.block_hash)
        replica.handle(1, decode(encode(header_msg)))
        replica.handle(1, decode(encode(payload_msg)))
        assert [v.vote.block_hash for v in ctx.sent_of_type(VoteMsg)] == [block.block_hash]

    def test_junk_payload_response(self, setup):
        replica, ctx, signers = setup
        header_msg, _, block = make_proposal(signers[1], 1, 1, gen_qc(replica))
        replica.handle(1, header_msg)
        self.assert_refused(PayloadResponseMsg(block_hash=block.block_hash, payload=5))
        assert not replica.store.has_payload(block.block_hash)

    def test_junk_payload_in_a_block_response(self, setup):
        replica, ctx, signers = setup
        _, _, block = make_proposal(signers[1], 1, 1, gen_qc(replica))
        junk = dataclasses.replace(block, payload=5)
        self.assert_refused(BlockRangeResponseMsg(justify=gen_qc(replica), blocks=(junk,), headers=()))
        assert not replica.store.has_payload(block.block_hash)
