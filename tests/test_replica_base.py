"""BaseReplica: dispatch, vote/blame accounting, commit helper, and the
subsystem attachment seam."""

from __future__ import annotations

import dataclasses
import functools
import gc
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.sync_hotstuff import SyncHotStuffReplica
from repro.config import ProtocolConfig
from repro.consensus.fetch import Fetch
from repro.consensus.replica import HOOKS, BaseReplica
from repro.consensus.validators import ValidatorSet
from repro.core.protocol import AlterBFTReplica
from repro.crypto.keystore import build_cluster_keys
from repro.errors import ConfigError, VerificationError
from repro.runner.registry import SUBSYSTEMS, attach_subsystems
from repro.types.block import make_block
from repro.types.certificates import (
    VOTE,
    AggregateQuorumCertificate,
    Blame,
    Certificate,
    Vote,
    genesis_qc,
)
from repro.types.messages import BlameMsg, VoteMsg
from repro.types.transaction import make_transaction
from tests.conftest import FakeContext
from tests.test_perf_hotpath import FENCE_A, _build_cluster, _flipped


class EchoReplica(BaseReplica):
    protocol_name = "alterbft"  # reuse a real protocol name for signatures

    HANDLERS = {VoteMsg: "on_vote"}
    # The horizon tests run it pipelined and checkpointing, as AlterBFT.
    FEATURES = AlterBFTReplica.FEATURES

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []

    def on_vote(self, src, msg):
        self.seen.append((src, msg))
        self.record_vote(src, msg.vote)


@pytest.fixture
def replica(signers3, validators3):
    config = ProtocolConfig(n=3, f=1)
    r = EchoReplica(0, validators3, config, signers3[0])
    ctx = FakeContext()
    ctx.bind_replica(r)
    return r


def make_vote(signer, epoch=1, height=1, block_hash=b"\x05" * 32, phase=0):
    return Vote.create(signer, "alterbft", epoch, height, block_hash, phase=phase)


class TestDispatch:
    def test_known_message_dispatched(self, replica, signers3):
        replica.handle(1, VoteMsg(vote=make_vote(signers3[1])))
        assert len(replica.seen) == 1

    def test_unknown_message_ignored(self, replica):
        replica.handle(1, object())
        assert replica.seen == []

    def test_crashed_replica_ignores_everything(self, replica, signers3):
        replica.crashed = True
        replica.handle(1, VoteMsg(vote=make_vote(signers3[1])))
        assert replica.seen == []
        replica.on_timer("pacemaker", None)  # must not raise

    def test_verification_errors_are_contained(self, replica, signers3):
        import dataclasses

        bad = dataclasses.replace(make_vote(signers3[1]), height=99)
        replica.handle(1, VoteMsg(vote=bad))  # bad signature → dropped
        # Replica keeps running:
        replica.handle(1, VoteMsg(vote=make_vote(signers3[1])))
        assert len(replica.seen) == 2

    def test_unknown_timer_tag_raises(self, replica):
        with pytest.raises(VerificationError):
            replica.on_timer("never-registered", None)


class TestVoteAccounting:
    def test_quorum_forms_once(self, replica, signers3):
        assert replica.record_vote(1, make_vote(signers3[1])) is None
        qc = replica.record_vote(2, make_vote(signers3[2]))
        assert isinstance(qc, AggregateQuorumCertificate)
        assert replica.record_vote(0, make_vote(signers3[0])) is None  # already formed

    def test_a_vote_sent_in_another_replicas_name_is_refused(self, replica, signers3):
        with pytest.raises(VerificationError, match="sent by 2"):
            replica.record_vote(2, make_vote(signers3[1]))
        assert replica.votes.pending == {}

    def test_a_forgery_in_a_peers_name_cannot_exclude_the_peer(self, signers3, validators3):
        """With batched checks, replica 2 sends a forged vote in replica 1's
        name, then its own.  Were the forgery counted, bisection would
        blame replica 1 and drop its votes for the rest of the run: with
        replica 2 withholding, no later quorum could form at n = 3."""
        config = ProtocolConfig(n=3, f=1, crypto_batch=True)
        replica = EchoReplica(0, validators3, config, signers3[0])
        FakeContext().bind_replica(replica)
        impostor = make_vote(signers3[1])
        forged = dataclasses.replace(impostor, signature=bytes(len(impostor.signature)))
        replica.handle(2, VoteMsg(vote=forged))
        replica.handle(2, VoteMsg(vote=make_vote(signers3[2])))
        assert replica.votes.excluded == set()
        following = b"\x06" * 32
        for voter in (1, 0):  # replica 2 withholds
            vote = make_vote(signers3[voter], height=2, block_hash=following)
            replica.handle(voter, VoteMsg(vote=vote))
        assert replica.qc_for(0, 1, 2, following) is not None

    def test_duplicate_votes_ignored(self, replica, signers3):
        assert replica.record_vote(1, make_vote(signers3[1])) is None
        assert replica.record_vote(1, make_vote(signers3[1])) is None

    def test_wrong_protocol_rejected(self, replica, signers3):
        vote = Vote.create(signers3[1], "pbft", 1, 1, b"\x05" * 32)
        with pytest.raises(VerificationError):
            replica.record_vote(1, vote)

    def test_invalid_voter_rejected(self, replica, signers3):
        import dataclasses

        vote = dataclasses.replace(make_vote(signers3[1]), voter=7)
        with pytest.raises(VerificationError):
            replica.record_vote(7, vote)

    def test_qc_lookup(self, replica, signers3):
        replica.record_vote(1, make_vote(signers3[1]))
        replica.record_vote(2, make_vote(signers3[2]))
        assert replica.qc_for(0, 1, 1, b"\x05" * 32) is not None
        assert replica.qc_for(0, 2, 1, b"\x05" * 32) is None

    def test_verify_qc(self, replica, signers3):
        replica.record_vote(1, make_vote(signers3[1]))
        qc = replica.record_vote(2, make_vote(signers3[2]))
        assert replica.verify_qc(qc)
        assert replica.verify_qc(genesis_qc("alterbft", replica.store.genesis.block_hash))
        assert not replica.verify_qc(genesis_qc("alterbft", b"\x00" * 32))


@pytest.mark.parametrize("batch", [False, True], ids=["eager", "crypto_batch"])
@pytest.mark.parametrize("scheme_name", ["hashsig", "schnorr"])
@pytest.mark.parametrize("forgery", ["flipped-byte", "other-digest"])
class TestForgeriesInThisReplicasName:
    """What this replica signed is vouched for in its verify cache, keyed
    by the full (public, digest, signature) triple.  A vote in its name
    that it did not sign therefore never rides on that entry, whatever
    id its sender claims.  Peers sign on their own scheme instance."""

    OTHER = b"\x06" * 32

    def _setup(self, scheme_name, batch, forgery):
        mine = build_cluster_keys(scheme_name, 3)[0]
        peers = build_cluster_keys(scheme_name, 3)
        replica = EchoReplica(
            0, ValidatorSet.synchronous(3, 1), ProtocolConfig(n=3, f=1, crypto_batch=batch), mine
        )
        FakeContext().bind_replica(replica)
        own = make_vote(mine)
        if forgery == "flipped-byte":
            forged = _flipped(own)
        else:  # this replica's signature over another digest
            forged = dataclasses.replace(own, block_hash=self.OTHER)
        return replica, peers, own, forged

    def test_sent_by_a_peer(self, scheme_name, batch, forgery):
        replica, _, _, forged = self._setup(scheme_name, batch, forgery)
        with pytest.raises(VerificationError, match="sent by 1"):
            replica.on_vote(1, VoteMsg(vote=forged))
        assert replica.votes.pending == {}

    def test_sent_under_this_replicas_id(self, scheme_name, batch, forgery):
        replica, peers, own, forged = self._setup(scheme_name, batch, forgery)
        scheme = replica.signer.scheme
        if not batch:
            misses = scheme.cache_misses
            with pytest.raises(VerificationError, match="bad vote signature from 0"):
                replica.on_vote(0, VoteMsg(vote=forged))
            assert scheme.cache_misses == misses + 1  # checked, not served
            hits = scheme.cache_hits
            replica.on_vote(0, VoteMsg(vote=own))  # the genuine vote: a lookup
            assert scheme.cache_hits == hits + 1 and scheme.cache_misses == misses + 1
            return
        # Batched checks defer every signature to quorum time, where the
        # forgery fails the batch and bisection excises it: no certificate.
        replica.on_vote(0, VoteMsg(vote=forged))
        peer = make_vote(peers[1], block_hash=forged.block_hash)
        replica.on_vote(1, VoteMsg(vote=peer))
        assert replica.qc_for(0, 1, 1, forged.block_hash) is None
        assert replica.votes.pending[peer.statement] == {1: peer}


def parent_record_vote(self, vote):
    """``BaseReplica.record_vote`` as it was while every vote bucket was
    kept for the whole run, body verbatim but for the bucket key, the
    whole statement: the oracle for the current one."""
    if not VOTE.is_signed(vote):
        raise VerificationError("not a well-formed vote")
    if vote.protocol != self.protocol_name:
        raise VerificationError("vote for a different protocol")
    if not self.validators.is_valid_replica(vote.voter):
        raise VerificationError(f"vote from unknown replica {vote.voter}")
    lazy = self.config.crypto_batch
    if lazy:
        if vote.voter in self._excluded_voters:
            return None
    elif not vote.verify(self.signer):
        raise VerificationError(f"bad vote signature from {vote.voter}")
    key = vote.statement
    bucket = self._votes.setdefault(key, {})
    if vote.voter in bucket:
        return None
    bucket[vote.voter] = vote
    quorum = self.validators.quorum
    if len(bucket) < quorum or key in self._qcs:
        return None
    if lazy and not self._batch_check_bucket(vote, bucket):
        return None  # bad votes excluded; quorum no longer met
    qc = Certificate.assemble(bucket.values(), self.signer)
    self._qcs[key] = qc
    return qc


ORACLE_N, ORACLE_F = 5, 2
ORACLE_KEYS = build_cluster_keys("hashsig", ORACLE_N)
#: The one signer whose votes are forged when ``crypto_batch`` is on.
BAD_SIGNER = ORACLE_N - 1

#: One vote of a stream: (kind, voter, phase, epoch, height, block hash).
#: Skewed to one statement, so quorums, duplicates and post-quorum votes
#: are common; the rest are the other phase/epoch/hash and, rarely, a
#: same-statement vote at a divergent height.
stream_votes = st.lists(
    st.tuples(
        st.sampled_from(["good"] * 6 + ["forged", "unknown"]),
        st.integers(0, ORACLE_N - 1),
        st.sampled_from([0, 0, 0, 1]),
        st.sampled_from([1, 1, 1, 2]),
        st.sampled_from([1] * 9 + [2]),
        st.sampled_from([b"\x05" * 32] * 3 + [b"\x06" * 32]),
    ),
    max_size=40,
)


def _traced_replica(batch, cls=EchoReplica):
    config = ProtocolConfig(n=ORACLE_N, f=ORACLE_F, crypto_batch=batch)
    validators = ValidatorSet.synchronous(ORACLE_N, ORACLE_F)
    replica = cls(0, validators, config, ORACLE_KEYS[0])
    ctx = FakeContext()
    ctx.traced = []
    ctx.trace = lambda kind, **detail: ctx.traced.append((kind, detail))
    ctx.bind_replica(replica)
    return replica, ctx


def _make_stream_vote(kind, voter, phase, epoch, height, block_hash, batch):
    if kind == "forged" and batch:
        voter = BAD_SIGNER
    vote = Vote.create(ORACLE_KEYS[voter], "alterbft", epoch, height, block_hash, phase=phase)
    if kind == "forged":
        vote = dataclasses.replace(vote, signature=bytes(len(vote.signature)))
    elif kind == "unknown":
        vote = dataclasses.replace(vote, voter=ORACLE_N + voter)
    return vote


def _outcome(record, *args):
    try:
        return record(*args)
    except VerificationError as exc:
        return (type(exc), str(exc))


class TestRecordVoteOracle:
    @settings(max_examples=300, deadline=None)
    @given(stream=stream_votes, batch=st.booleans())
    def test_agrees_with_the_keep_everything_body(self, stream, batch):
        replica, ctx = _traced_replica(batch)
        oracle, oracle_ctx = _traced_replica(batch, KeepEverything)
        for drawn in stream:
            vote = _make_stream_vote(*drawn, batch)
            got = _outcome(replica.record_vote, vote.voter, vote)
            assert got == _outcome(parent_record_vote, oracle, vote)
            assert replica.votes.certified == oracle._qcs
            assert ctx.traced == oracle_ctx.traced
            assert replica.votes.excluded == oracle._excluded_voters
            # Kept until the quorum, and not a vote longer.
            assert not set(replica.votes.pending) & set(replica.votes.certified)
            assert replica.votes.pending == {
                key: bucket for key, bucket in oracle._votes.items() if key not in oracle._qcs
            }

    def test_post_quorum_votes_are_checked_then_dropped(self, replica, signers3):
        replica.record_vote(1, make_vote(signers3[1]))
        assert replica.record_vote(2, make_vote(signers3[2])) is not None
        assert replica.votes.pending == {}
        vote = make_vote(signers3[0])
        forged = dataclasses.replace(vote, signature=bytes(len(vote.signature)))
        with pytest.raises(VerificationError):
            replica.record_vote(0, forged)
        assert replica.record_vote(0, make_vote(signers3[0])) is None
        assert replica.votes.pending == {}


def unreleased_record_vote(self, vote):
    """``BaseReplica.record_vote`` as it was before the retention horizon
    (buckets released at their quorum, every QC kept), body verbatim but
    for the bucket key, the whole statement."""
    if not VOTE.is_signed(vote):
        raise VerificationError("not a well-formed vote")
    if vote.protocol != self.protocol_name:
        raise VerificationError("vote for a different protocol")
    if not self.validators.is_valid_replica(vote.voter):
        raise VerificationError(f"vote from unknown replica {vote.voter}")
    lazy = self.config.crypto_batch
    if lazy:
        if vote.voter in self._excluded_voters:
            return None
    elif not vote.verify(self.signer):
        raise VerificationError(f"bad vote signature from {vote.voter}")
    key = vote.statement
    if key in self._qcs:
        return None
    bucket = self._votes.setdefault(key, {})
    if vote.voter in bucket:
        return None
    bucket[vote.voter] = vote
    if len(bucket) < self.validators.quorum:
        return None
    if lazy and not self._batch_check_bucket(vote, bucket):
        return None  # bad votes excluded; quorum no longer met
    qc = Certificate.assemble(bucket.values(), self.signer)
    self._qcs[key] = qc
    del self._votes[key]
    return qc


class KeepEverything(EchoReplica):
    """The oracles' replica: commits like any other, releases nothing, and
    holds its buckets and QCs where the retired bodies kept them.  It
    excludes and batch-checks through its collector."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._votes, self._qcs = {}, {}
        self._excluded_voters = self.votes.excluded
        self._batch_check_bucket = self.votes._batch_check

    def advance_horizon(self):
        pass


HORIZON_HEIGHTS = 6


@st.composite
def horizon_events(draw):
    """A stream across the horizon: events (action, kind, voter, height,
    variant).  Height by height, some of the honest voters (0 .. n-2) vote
    for the chain block, in any order; then come late votes at or below
    that height — re-deliveries, stragglers, the Byzantine signer's votes
    for the other phase, another epoch, another hash at that height or a
    chain block one height up, forgeries, unknown voters — and now and
    then a "commit" (of the longest prefix of the chain the oracle has
    certified: a replica commits only what it has certified) or a
    "checkpoint" (the store pruned below a committed height)."""
    events = []
    for height in range(1, HORIZON_HEIGHTS + 1):
        voters = draw(st.permutations(range(ORACLE_N - 1)))
        count = draw(st.sampled_from([2, 3, 3, 4, 4]))
        events += [("vote", "good", voter, height, "chain") for voter in voters[:count]]
        events += draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["vote"] * 4 + ["commit", "checkpoint"]),
                    st.sampled_from(["good", "byzantine", "forged", "unknown"]),
                    st.integers(0, ORACLE_N - 2),
                    st.integers(1, height),
                    st.sampled_from(["chain", "phase", "epoch", "hash", "height"]),
                ),
                max_size=8,
            )
        )
    return events


def _horizon_pair(batch, depth, checkpoints):
    """A replica and its keep-everything oracle over one block chain."""
    config = ProtocolConfig(
        n=ORACLE_N,
        f=ORACLE_F,
        crypto_batch=batch,
        pipeline_depth=depth,
        checkpoint_interval=4 if checkpoints else 0,
    )
    validators = ValidatorSet.synchronous(ORACLE_N, ORACLE_F)
    pair = []
    for cls in (EchoReplica, KeepEverything):
        replica = cls(0, validators, config, ORACLE_KEYS[0])
        ctx = FakeContext()
        ctx.traced = []
        ctx.trace = lambda kind, ctx=ctx, **detail: ctx.traced.append((kind, detail))
        ctx.bind_replica(replica)
        pair.append((replica, ctx))
    chain, parent = [], pair[0][0].store.genesis.block_hash
    for height in range(1, HORIZON_HEIGHTS + 1):
        block = make_block(1, height, parent, (make_transaction(0, height, 0.0, 8),), 0)
        chain.append(block)
        parent = block.block_hash
        for replica, _ in pair:
            replica.store.add_block(block)
    return pair, chain


def _horizon_vote(kind, voter, height, variant, chain, batch):
    block = chain[height - 1]
    if kind in ("good", "unknown"):
        variant = "chain"
    if kind == "byzantine" or (kind == "forged" and batch):
        voter = BAD_SIGNER
    phase, epoch, block_hash = 0, 1, block.block_hash
    if variant == "phase":
        phase = 1
    elif variant == "epoch":
        epoch = 2
    elif variant == "hash":
        block_hash = bytes([height]) * 32
    elif variant == "height":
        height += 1
    vote = Vote.create(ORACLE_KEYS[voter], "alterbft", epoch, height, block_hash, phase=phase)
    if kind == "forged":
        vote = dataclasses.replace(vote, signature=bytes(len(vote.signature)))
    elif kind == "unknown":
        vote = dataclasses.replace(vote, voter=ORACLE_N + voter)
    return vote


def _buckets(replica):
    return {key: dict(bucket) for key, bucket in replica.votes.pending.items()}


class TestRecordVoteAcrossTheHorizon:
    @settings(max_examples=300, deadline=None)
    @given(
        events=horizon_events(),
        batch=st.booleans(),
        depth=st.sampled_from([1, 2]),
        checkpoints=st.booleans(),
    )
    def test_agrees_with_the_unreleased_body(self, events, batch, depth, checkpoints):
        ((replica, ctx), (oracle, oracle_ctx)), chain = _horizon_pair(batch, depth, checkpoints)
        for action, kind, voter, height, variant in events:
            if action == "commit":
                certified = 0
                while certified < len(chain) and (
                    ("alterbft", 0, 1, certified + 1, chain[certified].block_hash) in oracle._qcs
                ):
                    certified += 1
                if certified > replica.ledger.height:
                    for each in (replica, oracle):
                        each.commit_through(chain[certified - 1].block_hash)
                continue
            if action == "checkpoint":
                for each in (replica, oracle):
                    each.store.prune_below(min(height, each.ledger.height))
                continue
            vote = _horizon_vote(kind, voter, height, variant, chain, batch)
            settled = vote.height <= replica.horizon
            before = _buckets(replica)
            got = _outcome(replica.record_vote, vote.voter, vote)
            assert got == _outcome(unreleased_record_vote, oracle, vote)
            if settled:
                assert _buckets(replica) == before  # no bucket opens or grows
            horizon = replica.horizon
            assert replica.votes.certified == {
                key: qc for key, qc in oracle._qcs.items() if qc.height > horizon
            }
            assert ctx.traced == oracle_ctx.traced
            assert replica.votes.excluded == oracle._excluded_voters
            for key, bucket in replica.votes.pending.items():
                if key in oracle._qcs:
                    # A released statement reopened by a vote claiming a
                    # height above the horizon: only the Byzantine signer
                    # does that, and alone it never reaches a quorum.
                    assert set(bucket) == {BAD_SIGNER}
                else:
                    assert bucket == oracle._votes[key]
            for key, bucket in oracle._votes.items():
                if key not in oracle._qcs and any(v.height > horizon for v in bucket.values()):
                    assert key in replica.votes.pending
        assert replica.horizon <= replica.ledger.height - depth
        if checkpoints:
            assert replica.horizon <= replica.store.floor

    def test_votes_below_the_horizon_are_checked_then_dropped(self):
        ((replica, _), _), chain = _horizon_pair(batch=False, depth=1, checkpoints=False)
        for voter in range(3):
            vote = Vote.create(ORACLE_KEYS[voter], "alterbft", 1, 2, chain[1].block_hash)
            replica.record_vote(voter, vote)
        replica.commit_through(chain[1].block_hash)
        assert replica.horizon == 1 and replica.votes.certified and not replica.votes.pending
        stale = Vote.create(ORACLE_KEYS[3], "alterbft", 1, 1, chain[0].block_hash)
        forged = dataclasses.replace(stale, signature=bytes(len(stale.signature)))
        with pytest.raises(VerificationError):
            replica.record_vote(3, forged)
        assert replica.record_vote(3, stale) is None
        assert replica.votes.pending == {}

    def test_a_late_quorum_below_the_horizon_is_not_assembled(self):
        """The one place the horizon differs from keeping everything: a
        statement still short of its quorum when the head passes it (an
        ancestor committed through a descendant's certificate) never gets
        one here.  Its QC could serve nothing: the block is committed."""
        ((replica, _), (oracle, _)), chain = _horizon_pair(batch=False, depth=1, checkpoints=False)
        late = [Vote.create(ORACLE_KEYS[v], "alterbft", 1, 1, chain[0].block_hash) for v in range(3)]
        def record_from_voter(each, vote):
            return each.record_vote(vote.voter, vote)

        for each, record in ((replica, record_from_voter), (oracle, unreleased_record_vote)):
            assert record(each, late[0]) is None
            for voter in range(3):
                vote = Vote.create(ORACLE_KEYS[voter], "alterbft", 1, 2, chain[1].block_hash)
                record(each, vote)
            each.commit_through(chain[1].block_hash)
        assert [unreleased_record_vote(oracle, v) for v in late[1:]][-1] is not None
        assert [replica.record_vote(v.voter, v) for v in late[1:]] == [None, None]
        assert replica.votes.pending == {}  # the short bucket went with the horizon


#: Seeded runs whose per-height state must not grow with their length: an
#: n = 7 run at durations D and 2D, and the crash/rejoin/guard-ladder fence.
BOUNDED_RUNS = {
    "n7-fault-free": dict(f=3, duration=2.0),
    "n7-fault-free-2x": dict(f=3, duration=4.0),
    "fence-a": FENCE_A,
}

#: Objects a walk of run state does not enter: they are shared program
#: structure, not per-height state.
_OPAQUE = (type, types.ModuleType, types.FunctionType, types.MethodType, types.CodeType)


def _reachable(roots, barrier=()):
    stop = {id(obj) for obj in barrier}
    seen, stack = {}, list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in stop or isinstance(obj, _OPAQUE):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return seen


def exclusive_bytes(cluster, structures):
    """Bytes reachable from ``structures`` and from nothing else in the
    cluster: what deleting them would free (DESIGN.md, "What a replica
    keeps per height")."""
    own = _reachable(structures)
    rest = _reachable([cluster], barrier=structures)
    return sum(sys.getsizeof(obj) for oid, obj in own.items() if oid not in rest)


@functools.lru_cache(maxsize=None)
def _sampled_run(name):
    """Run one of :data:`BOUNDED_RUNS`, sampling every replica at every
    commit; returns (heights, peak buckets, peak QCs, held QCs' B/height)."""
    cluster = _build_cluster(**BOUNDED_RUNS[name])
    peaks = {"votes": 0, "qcs": 0}
    for replica in cluster.replicas:

        def sample(block, now, replica=replica):
            peaks["votes"] = max(peaks["votes"], len(replica.votes.pending))
            peaks["qcs"] = max(peaks["qcs"], len(replica.votes.certified))
            assert all(qc.height > replica.horizon for qc in replica.votes.certified.values())

        # Listeners outlive a restart, so the rejoiner keeps being sampled.
        replica.ledger.add_listener(sample)
    cluster.start()
    cluster.run()
    heights = [r.ledger.height for r in cluster.replicas]
    qcs = exclusive_bytes(cluster, [r.votes.certified for r in cluster.replicas]) / sum(heights)
    return min(heights), peaks["votes"], peaks["qcs"], qcs


@pytest.mark.parametrize("name", sorted(BOUNDED_RUNS))
def test_vote_buckets_stay_bounded_over_a_run(name):
    """At every commit, each replica holds a handful of open vote buckets
    and of certificates, not one per height of the run so far."""
    height, votes, qcs, qcs_bytes = _sampled_run(name)
    assert height > 40
    assert votes < 10
    # What is held is the certified-but-uncommitted span a 2Δ window keeps
    # in flight (a handful of heights at Δ = 5 ms; tens on FENCE_A's
    # rung-2 Δ of 20 ms) plus pipeline_depth below the head.
    assert qcs < (10 if name.startswith("n7") else 40)
    assert qcs_bytes <= 10.0  # B/height; 396 while every QC was kept


def test_held_certificates_do_not_grow_with_the_run():
    _, votes, qcs, qcs_bytes = _sampled_run("n7-fault-free")
    _, votes_2x, qcs_2x, qcs_bytes_2x = _sampled_run("n7-fault-free-2x")
    assert (votes_2x, qcs_2x) == (votes, qcs)
    assert qcs_bytes_2x < qcs_bytes


def test_caches_at_their_working_set_hit_as_often(monkeypatch):
    """The verify LRU and the domain-hash memo, at 1,024 entries, hit
    exactly as often on a seeded n = 7 run as at their old bounds of
    65,536 and 32,768 — and the run is the same run."""
    from repro.crypto import hashing, signatures

    full = []

    def counts():
        signatures._domain_hash_cached.cache_clear()
        cluster = _build_cluster(**BOUNDED_RUNS["n7-fault-free-2x"])
        cluster.start()
        cluster.run()
        scheme = cluster.replicas[0].signer.scheme
        memo = signatures._domain_hash_cached.cache_info()
        full.append(scheme.cache_evictions > 0 and memo.currsize == memo.maxsize)
        return scheme.cache_hits, memo.hits, cluster.fingerprint()

    assert signatures.VERIFY_CACHE_DEFAULT == signatures._domain_hash_cached.cache_info().maxsize
    assert signatures.VERIFY_CACHE_DEFAULT == 1024
    now = counts()
    assert full == [True]  # both caches evicted at the new bound
    monkeypatch.setattr(signatures, "VERIFY_CACHE_DEFAULT", 1 << 16)
    monkeypatch.setattr(
        signatures, "_domain_hash_cached", functools.lru_cache(maxsize=1 << 15)(hashing.domain_hash)
    )
    assert counts() == now


def record_blame(replica, signer):
    blame = Blame.create(signer, replica.protocol_name, 1)
    replica.blames.check(signer.replica_id, blame)
    return replica.blames.add(blame)


class TestBlameAccounting:
    def test_blame_cert_forms_once(self, replica, signers3):
        assert record_blame(replica, signers3[1]) is None
        cert = record_blame(replica, signers3[2])
        assert cert is not None
        assert replica.blames.certifies(cert)
        assert record_blame(replica, signers3[0]) is None

    def test_wrong_protocol_blame_rejected(self, replica, signers3):
        with pytest.raises(VerificationError):
            replica.blames.check(1, Blame.create(signers3[1], "hotstuff", 1))


class TestCommitHelper:
    def test_commit_through_ancestors(self, replica):
        parent = replica.store.genesis.block_hash
        blocks = []
        for height in (1, 2, 3):
            block = make_block(1, height, parent, (make_transaction(0, height, 0.0, 8),), 0)
            replica.store.add_block(block)
            blocks.append(block)
            parent = block.block_hash
        committed = replica.commit_through(blocks[-1].block_hash)
        assert [b.height for b in committed] == [1, 2, 3]
        assert replica.ledger.height == 3
        assert replica.commit_through(blocks[-1].block_hash) == []  # idempotent

    def test_commit_removes_from_mempool(self, replica):
        tx = make_transaction(0, 1, 0.0, 8)
        replica.mempool.add(tx)
        block = make_block(1, 1, replica.store.genesis.block_hash, (tx,), 0)
        replica.store.add_block(block)
        replica.commit_through(block.block_hash)
        assert replica.mempool.pending_count == 0


class TestProposalSignatures:
    def test_sign_and_verify(self, replica, signers3):
        block_hash = b"\x17" * 32
        sig = replica.sign_proposal(block_hash)
        assert replica.verify_proposal_signature(0, block_hash, sig)
        assert not replica.verify_proposal_signature(1, block_hash, sig)
        assert not replica.verify_proposal_signature(0, b"\x18" * 32, sig)


# -- the attachment seam --------------------------------------------------------


class Probe:
    """A minimal subsystem: one handler, one timer, two hooks."""

    name = "probe"
    HANDLERS = {BlameMsg: "on_blame"}
    TIMERS = {"probe_tick": "on_tick"}

    def __init__(self, log, label="probe"):
        self.log = log
        self.label = label

    def on_blame(self, src, msg):
        self.log.append((self.label, "blame", src))

    def on_tick(self, payload):
        self.log.append((self.label, "tick", payload))

    def on_committed(self, blocks):
        self.log.append((self.label, "committed", [b.height for b in blocks]))

    def journal(self, record):
        self.log.append((self.label, "journal", record))


def _commit_one(replica):
    block = make_block(1, 1, replica.store.genesis.block_hash, (), 0)
    replica.store.add_block(block)
    replica.commit_through(block.block_hash)


class TestAttach:
    def test_registers_handlers_timers_and_hooks(self, replica, signers3):
        log = []
        probe = Probe(log)
        replica.attach(probe)
        assert replica.subsystems == {"probe": probe}
        replica.handle(2, BlameMsg(blame=Blame.create(signers3[2], "alterbft", 1)))
        replica.on_timer("probe_tick", 7)
        _commit_one(replica)
        replica._fire("journal", "record")
        assert log == [
            ("probe", "blame", 2),
            ("probe", "tick", 7),
            ("probe", "committed", [1]),
            ("probe", "journal", "record"),
        ]
        # The hooks it does not implement have no subscriber.
        assert not replica._hooks["on_start"] and not replica._hooks["drop_blocks"]
        assert set(replica._hooks) == set(HOOKS)

    def test_verification_errors_of_a_subsystem_handler_are_contained(self, replica, signers3):
        class Strict(Probe):
            def on_blame(self, src, msg):
                raise VerificationError("no")

        replica.attach(Strict([]))
        replica.handle(2, BlameMsg(blame=Blame.create(signers3[2], "alterbft", 1)))

    def test_hooks_fire_in_attach_order(self, replica):
        log = []

        class Other(Probe):
            name = "other"
            HANDLERS = {}
            TIMERS = {}

        replica.attach(Other(log, "first"))
        replica.attach(Probe(log, "second"))
        _commit_one(replica)
        assert [label for label, *_ in log] == ["first", "second"]
        assert list(replica.subsystems) == ["other", "probe"]

    @pytest.mark.parametrize(
        "claim",
        [
            dict(HANDLERS={VoteMsg: "on_blame"}),  # the replica's own message
            dict(HANDLERS={BlameMsg: "on_blame"}),  # another subsystem's message
            dict(TIMERS={"probe_tick": "on_tick"}),  # another subsystem's timer
            dict(TIMERS={"own": "on_tick"}),  # a timer the replica defines as _timer_own
            dict(name="probe"),  # the name itself
        ],
        ids=["replica-message", "subsystem-message", "subsystem-timer", "replica-timer", "name"],
    )
    def test_second_owner_is_a_config_error(self, replica, claim):
        replica._timer_own = lambda payload: None
        replica.attach(Probe([]))
        rival = type("Rival", (Probe,), {"name": "rival", "HANDLERS": {}, "TIMERS": {}, **claim})
        before = (dict(replica._bound_handlers), dict(replica._timer_methods))
        hooks_before = {hook: list(subs) for hook, subs in replica._hooks.items()}
        with pytest.raises(ConfigError):
            replica.attach(rival([]))
        # Refused before anything was registered.
        assert (replica._bound_handlers, replica._timer_methods) == before
        assert replica._hooks == hooks_before
        assert list(replica.subsystems) == ["probe"]


ALL_SUBSYSTEM_FLAGS = dict(guard_enabled=True, checkpoint_interval=8, dissemination=True)


def _family_replica(cls, signers3, validators3, **flags):
    replica = cls(0, validators3, ProtocolConfig(n=3, f=1, delta=0.005, **flags), signers3[0])
    ctx = FakeContext()
    ctx.traced = []
    ctx.trace = lambda kind, **detail: ctx.traced.append(kind)
    ctx.bind_replica(replica)
    return replica, ctx


class TestBareFamilyReplica:
    @pytest.mark.parametrize("cls,core", [(AlterBFTReplica, 11), (SyncHotStuffReplica, 10)])
    def test_dispatches_exactly_the_core_classes(self, cls, core, signers3, validators3):
        """Its own classes and the fetch's, which every replica holds."""
        replica, ctx = _family_replica(cls, signers3, validators3)
        assert set(replica._bound_handlers) == {*cls.HANDLERS, *Fetch.HANDLERS}
        assert len(replica._bound_handlers) == core
        replica.on_start()
        traced = list(ctx.traced)
        # A subsystem's message reaching a replica without that subsystem
        # is an unknown message: no handler, no trace, no exception.
        for subsystem in SUBSYSTEMS:
            for msg_cls in subsystem.HANDLERS:
                assert msg_cls not in replica._bound_handlers
                replica.handle(1, object.__new__(msg_cls))
        replica.handle(1, object())
        assert ctx.traced == traced

    @pytest.mark.parametrize("flag", sorted(ALL_SUBSYSTEM_FLAGS))
    def test_flag_without_its_subsystem_refuses_to_start(self, flag, signers3, validators3):
        flags = {flag: ALL_SUBSYSTEM_FLAGS[flag]}
        replica, _ = _family_replica(AlterBFTReplica, signers3, validators3, **flags)
        with pytest.raises(ConfigError, match="no such subsystem"):
            replica.on_start()
        attach_subsystems(replica)
        replica.on_start()  # the builder's answer satisfies the check

    def test_builder_and_start_check_read_one_answer(self, signers3, validators3):
        config = ProtocolConfig(n=3, f=1, **ALL_SUBSYSTEM_FLAGS)
        assert tuple(config.features()) == tuple(s.name for s in SUBSYSTEMS)
        assert ProtocolConfig(n=3, f=1).features() == {}
        replica, _ = _family_replica(
            AlterBFTReplica, signers3, validators3, **ALL_SUBSYSTEM_FLAGS
        )
        attach_subsystems(replica)
        assert tuple(replica.subsystems) == tuple(config.features())
        # Sync HotStuff cannot carry dissemination: it is refused where the
        # replica is built, not left out by the builder for the start check.
        with pytest.raises(ConfigError, match="sync-hotstuff does not carry dissem"):
            _family_replica(SyncHotStuffReplica, signers3, validators3, **ALL_SUBSYSTEM_FLAGS)
        flags = dict(ALL_SUBSYSTEM_FLAGS, dissemination=False)
        replica, _ = _family_replica(SyncHotStuffReplica, signers3, validators3, **flags)
        attach_subsystems(replica)
        assert tuple(replica.subsystems) == ("recovery", "guard")
        replica.on_start()

    def test_restart_re_registers_every_subsystem(self, signers3, validators3):
        replica, ctx = _family_replica(
            AlterBFTReplica, signers3, validators3, **ALL_SUBSYSTEM_FLAGS
        )
        attach_subsystems(replica)
        replica.on_start()
        handlers = {
            cls: handler
            for cls, handler in replica._bound_handlers.items()
            if cls not in Fetch.HANDLERS
        }
        hooks = {hook: list(subs) for hook, subs in replica._hooks.items()}
        subsystems = dict(replica.subsystems)
        replica.delta_scale = 4.0  # as a guard install at rung 2 leaves it
        replica.crashed = True
        replica.subsystems["recovery"].restart()
        # Fresh dispatch tables, same owners: every handler, timer and hook
        # is bound to the very subsystem object that outlived the crash —
        # and the fetch's to the fresh fetch, whose open request was volatile.
        fetch = {cls: getattr(replica.fetch, m) for cls, m in Fetch.HANDLERS.items()}
        assert replica._bound_handlers == {**handlers, **fetch} and len(handlers) == 21
        assert replica._hooks == hooks
        assert replica.subsystems == subsystems and list(replica.subsystems) == list(subsystems)
        for subsystem in subsystems.values():
            for msg_cls, method in subsystem.HANDLERS.items():
                assert replica._bound_handlers[msg_cls] == getattr(subsystem, method)
            for tag, method in subsystem.TIMERS.items():
                assert replica._timer_methods[tag] == getattr(subsystem, method)
        # The two pushed values are not __init__'s to reset.
        assert replica.delta_scale == 4.0 and replica._delta() == pytest.approx(0.02)
        assert replica.send_payload == replica.subsystems["dissem"].disseminate
        assert not replica.crashed and replica.subsystems["recovery"].restarts == 1
