"""Chained/pipelined AlterBFT: leader streaming, cross-in-flight faults.

Covers the pipeline contract from every side:

* depth 1 is byte-identical to the classic serial leader (golden
  fingerprint), and only alterbft accepts depth > 1;
* a depth-d leader streams up to d certified-or-awaiting proposals and
  tolerates votes arriving out of height order;
* cross-in-flight equivocation cancels *every* pending commit window of
  the epoch, and a leader crash mid-window loses only the uncertified
  suffix — the certified prefix survives the epoch change;
* random certificate/message interleavings never commit height h before
  h−1 (hypothesis property);
* the pipelined scenario family (``pd`` flag) round-trips, validates,
  and replays deterministically.
"""

from __future__ import annotations

import pytest

from repro.bench.common import make_config
from repro.check.scenarios import FAMILIES, build_config, grid, parse_scenario_id
from repro.config import ProtocolConfig
from repro.core.protocol import ACTIVE, AlterBFTReplica
from repro.errors import ConfigError, VerificationError
from repro.runner.cluster import build_cluster
from repro.runner.experiment import standard_protocol_config
from repro.types.block import make_block
from repro.types.certificates import Blame, Certificate, Vote, genesis_qc
from repro.types.messages import (
    PROPOSAL_DOMAIN,
    BlameCertMsg,
    BlameMsg,
    PayloadMsg,
    ProposalHeaderMsg,
    StatusMsg,
    VoteMsg,
    proposal_signing_bytes,
)
from repro.types.transaction import make_transaction
from tests.conftest import FakeContext, quick_config
from tests.test_alterbft_unit import DELTA, gen_qc, make_proposal, qc_over
from tests.test_perf_hotpath import GOLDEN_FINGERPRINT


def _pipelined_config(depth: int, **overrides) -> ProtocolConfig:
    return ProtocolConfig(
        n=3,
        f=1,
        delta=DELTA,
        epoch_timeout=1.0,
        pipeline_depth=depth,
        idle_propose_delay=0.0,
        **overrides,
    )


@pytest.fixture
def leader4(signers3, validators3):
    """Replica 1 (leader of epoch 1) with a depth-4 pipeline."""
    replica = AlterBFTReplica(1, validators3, _pipelined_config(4), signers3[1])
    ctx = FakeContext(node_id=1, n=3)
    ctx.bind_replica(replica)
    replica.on_start()
    return replica, ctx, signers3


@pytest.fixture
def follower4(signers3, validators3):
    """Replica 0 (follower) accepting a depth-4 leader's stream."""
    replica = AlterBFTReplica(0, validators3, _pipelined_config(4), signers3[0])
    ctx = FakeContext(node_id=0, n=3)
    ctx.bind_replica(replica)
    replica.on_start()
    return replica, ctx, signers3


def _headers(ctx) -> list:
    """Distinct proposed headers in order (the relay re-sends duplicates)."""
    seen = set()
    out = []
    for m in ctx.sent_of_type(ProposalHeaderMsg):
        if m.header.block_hash not in seen:
            seen.add(m.header.block_hash)
            out.append(m.header)
    return out


def _vote_for(replica, ctx, signer, height, block_hash):
    vote = Vote.create(signer, "alterbft", replica.epoch, height, block_hash)
    replica.handle(signer.replica_id, VoteMsg(vote=vote))


# ---------------------------------------------------------------------------
# Depth 1: the classic serial leader, byte for byte
# ---------------------------------------------------------------------------


class TestDepthOneUnchanged:
    def test_explicit_depth1_matches_golden_fingerprint(self):
        """pipeline_depth=1 must not perturb the simulation at all."""
        cfg = make_config(
            "alterbft", f=1, rate=500.0, duration=1.5, seed=7, pipeline_depth=1
        )
        cluster = build_cluster(cfg)
        cluster.start()
        cluster.run()
        assert cluster.fingerprint() == GOLDEN_FINGERPRINT

    def test_depth1_leader_is_serial(self, signers3, validators3):
        replica = AlterBFTReplica(1, validators3, _pipelined_config(1), signers3[1])
        ctx = FakeContext(node_id=1, n=3)
        ctx.bind_replica(replica)
        replica.on_start()
        assert [h.height for h in _headers(ctx)] == [1]
        b1 = _headers(ctx)[0]
        _vote_for(replica, ctx, signers3[0], 1, b1.block_hash)
        # One certificate frees exactly one slot: no streaming at depth 1.
        assert [h.height for h in _headers(ctx)] == [1, 2]


class TestBaselinesRejectDepth:
    @pytest.mark.parametrize("protocol", ["sync-hotstuff", "hotstuff", "pbft"])
    def test_experiment_config_rejects_depth_over_1(self, protocol):
        cfg = quick_config(protocol=protocol, pipeline_depth=2)
        with pytest.raises(ConfigError, match="pipeline_depth"):
            cfg.validate()

    def test_sync_hotstuff_replica_rejects_depth_over_1(self, signers3, validators3):
        from repro.baselines.sync_hotstuff import SyncHotStuffReplica

        with pytest.raises(ConfigError, match="pipeline_depth"):
            SyncHotStuffReplica(0, validators3, _pipelined_config(2), signers3[0])

    def test_alterbft_accepts_depth_4(self):
        quick_config(protocol="alterbft", pipeline_depth=4).validate()

    def test_override_reaches_protocol_config(self):
        pconf = standard_protocol_config(
            "alterbft", f=1, delta_small=0.005, delta_big=0.1, pipeline_depth=4
        )
        assert pconf.pipeline_depth == 4


# ---------------------------------------------------------------------------
# The chained leader
# ---------------------------------------------------------------------------


class TestPipelinedLeader:
    def test_streams_window_after_first_certificate(self, leader4):
        replica, ctx, signers = leader4
        # Before the epoch owns a certificate: exactly one proposal (a
        # second header justified below the epoch would be a second
        # anchor — indictable equivocation).
        assert [h.height for h in _headers(ctx)] == [1]
        b1 = _headers(ctx)[0]
        _vote_for(replica, ctx, signers[0], 1, b1.block_hash)
        # The certificate opens the window: the leader streams straight
        # to depth, every deeper header justified by the same epoch cert.
        heights = [h.height for h in _headers(ctx)]
        assert heights == [1, 2, 3, 4, 5]
        justify_by_height = {
            m.header.height: m.justify.height
            for m in ctx.sent_of_type(ProposalHeaderMsg)
        }
        assert [justify_by_height[h] for h in (2, 3, 4, 5)] == [1, 1, 1, 1]
        # Each in-flight block has its own commit window running.
        assert ctx.pending_tags().count("commit_wait") == 5

    def test_out_of_height_order_votes(self, leader4):
        replica, ctx, signers = leader4
        b1 = _headers(ctx)[0]
        _vote_for(replica, ctx, signers[0], 1, b1.block_hash)
        by_height = {h.height: h for h in _headers(ctx)}
        # Votes for height 4 land before any vote for heights 2 and 3:
        # the certificate at 4 embeds honest votes through 4, so the
        # whole prefix leaves the window at once and streaming resumes.
        _vote_for(replica, ctx, signers[0], 4, by_height[4].block_hash)
        heights = [h.height for h in _headers(ctx)]
        assert heights == [1, 2, 3, 4, 5, 6, 7, 8]
        assert [height for height, _ in replica._inflight] == [5, 6, 7, 8]
        # A stale certificate for the already-pruned height 2 must not
        # re-open slots or re-propose anything.
        before = len(_headers(ctx))
        _vote_for(replica, ctx, signers[2], 2, by_height[2].block_hash)
        assert len(_headers(ctx)) == before
        assert replica.high_qc.height == 4
        # No height was ever proposed twice.
        all_heights = [h.height for h in _headers(ctx)]
        assert len(all_heights) == len(set(all_heights))

    def test_epoch_change_clears_inflight_window(self, leader4):
        replica, ctx, signers = leader4
        b1 = _headers(ctx)[0]
        _vote_for(replica, ctx, signers[0], 1, b1.block_hash)
        assert len(replica._inflight) == 4
        cert = Certificate.assemble(
            tuple(Blame.create(s, "alterbft", 1) for s in signers[:2]), signers[0], aggregate=False
        )
        replica.handle(2, BlameCertMsg(cert=cert))
        ctx.fire_timer("enter_epoch")
        assert replica._inflight == []


# ---------------------------------------------------------------------------
# Cross-in-flight faults, from the follower's seat
# ---------------------------------------------------------------------------


def _stream_two(replica, ctx, signers):
    """Deliver b1 (certified) and b2 (awaiting) from the depth-4 leader."""
    h1, p1, b1 = make_proposal(signers[1], 1, 1, gen_qc(replica))
    replica.handle(1, h1)
    replica.handle(1, p1)
    for signer in signers[1:]:
        vote = Vote.create(signer, "alterbft", 1, 1, b1.block_hash)
        replica.handle(signer.replica_id, VoteMsg(vote=vote))
    qc1 = qc_over(signers[1:], b1)
    h2, p2, b2 = make_proposal(signers[1], 1, 2, qc1, seq=10)
    replica.handle(1, h2)
    replica.handle(1, p2)
    return b1, qc1, b2


class TestCrossInflightEquivocation:
    def test_both_windows_open_and_commit_cleanly(self, follower4):
        replica, ctx, signers = follower4
        b1, qc1, b2 = _stream_two(replica, ctx, signers)
        assert ctx.pending_tags().count("commit_wait") == 2
        # Control: with no conflict, the certified block commits when its
        # window elapses — the windows are genuinely armed.
        ctx.fire_timer("commit_wait")
        assert replica.ledger.height == 1
        assert replica.ledger.head.block_hash == b1.block_hash

    def test_blame_cancels_both_inflight_windows(self, follower4):
        replica, ctx, signers = follower4
        b1, qc1, b2 = _stream_two(replica, ctx, signers)
        # A conflicting height-2 variant arrives by relay while BOTH
        # commit windows (heights 1 and 2) are still running.
        h2_alt, _, _ = make_proposal(signers[1], 1, 2, qc1, seq=80)
        replica.handle(2, h2_alt)
        assert ctx.sent_of_type(BlameMsg), "equivocation must draw blame"
        # Every pending window of the epoch is dead — the certified-but-
        # uncommitted height 1 included.  Its certificate survives into
        # the next epoch instead.
        ctx.fire_timer("commit_wait")
        ctx.fire_timer("commit_wait")
        assert replica.ledger.height == 0

    def test_gap_header_needs_pipelined_verifier(self, signers3, validators3):
        """A gap-2 header is valid at depth ≥ 2 and invalid at depth 1."""
        for depth, ok in ((4, True), (1, False)):
            replica = AlterBFTReplica(
                0, validators3, _pipelined_config(depth), signers3[0]
            )
            ctx = FakeContext(node_id=0, n=3)
            ctx.bind_replica(replica)
            replica.on_start()
            h1, p1, b1 = make_proposal(signers3[1], 1, 1, gen_qc(replica))
            replica.handle(1, h1)
            replica.handle(1, p1)
            qc1 = qc_over(signers3[1:], b1)
            h2, p2, b2 = make_proposal(signers3[1], 1, 2, qc1, seq=10)
            replica.handle(1, h2)
            replica.handle(1, p2)
            # Height 3 justified by the height-1 certificate: gap 2.
            block3 = make_block(
                1,
                3,
                b2.block_hash,
                (make_transaction(9, 30, 0.0, 16),),
                1,
            )
            signature = signers3[1].digest_and_sign(
                PROPOSAL_DOMAIN, proposal_signing_bytes(block3.block_hash)
            )
            h3 = ProposalHeaderMsg(header=block3.header, signature=signature, justify=qc1)
            if ok:
                replica.handle(1, h3)
                replica.handle(
                    1,
                    PayloadMsg(
                        epoch=1,
                        height=3,
                        block_hash=block3.block_hash,
                        payload=block3.payload,
                    ),
                )
                voted = [v.vote.height for v in ctx.sent_of_type(VoteMsg)]
                assert voted == [1, 2, 3]
            else:
                with pytest.raises(VerificationError):
                    replica.on_proposal_header(1, h3)


class TestLeaderCrashMidWindow:
    def test_certified_prefix_survives_suffix_reproposed(self, follower4):
        replica, ctx, signers = follower4
        b1, qc1, b2 = _stream_two(replica, ctx, signers)
        # The leader dies with height 1 certified and height 2 in flight.
        ctx.fire_timer("pacemaker")
        own_blames = ctx.sent_of_type(BlameMsg)
        assert own_blames and own_blames[0].blame.epoch == 1
        replica.handle(2, BlameMsg(blame=Blame.create(signers[2], "alterbft", 1)))
        ctx.fire_timer("enter_epoch")
        assert replica.epoch == 2 and replica.state == ACTIVE
        # The certified prefix survives the window resolution...
        assert replica.high_qc.block_hash == b1.block_hash
        assert (replica.high_qc.epoch, replica.high_qc.height) == (1, 1)
        statuses = [(dst, m) for dst, m in ctx.sent if isinstance(m, StatusMsg)]
        assert statuses and statuses[-1][1].high_qc.block_hash == b1.block_hash
        # ...and the uncertified suffix slot is re-proposed by the new
        # leader on top of it, which this replica adopts.
        h2b, p2b, b2b = make_proposal(signers[2], 2, 2, qc1, seq=50)
        replica.handle(2, h2b)
        replica.handle(2, p2b)
        voted = [v.vote.height for v in ctx.sent_of_type(VoteMsg)]
        assert voted[-1] == 2 and b2b.block_hash != b2.block_hash


# ---------------------------------------------------------------------------
# Property: no interleaving commits h before h−1
# ---------------------------------------------------------------------------


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _build_stream(signers, replica):
    """Leader's depth-4 stream: b1 + QC1, then b2..b4 justified by QC1."""
    h1, p1, b1 = make_proposal(signers[1], 1, 1, gen_qc(replica))
    qc1 = qc_over(signers[1:], b1)
    chain = [b1]
    events = [("msg", h1), ("msg", p1)]
    parent = b1
    for height, seq in ((2, 10), (3, 20), (4, 30)):
        block = make_block(
            1,
            height,
            parent.block_hash,
            (make_transaction(9, seq, 0.0, 16),),
            1,
        )
        signature = signers[1].digest_and_sign(
            PROPOSAL_DOMAIN, proposal_signing_bytes(block.block_hash)
        )
        events.append(
            ("msg", ProposalHeaderMsg(header=block.header, signature=signature, justify=qc1))
        )
        events.append(
            (
                "msg",
                PayloadMsg(
                    epoch=1, height=height, block_hash=block.block_hash, payload=block.payload
                ),
            )
        )
        chain.append(block)
        parent = block
    for block in chain:
        for signer in signers[1:]:
            events.append(
                (
                    "vote",
                    VoteMsg(
                        vote=Vote.create(
                            signer, "alterbft", 1, block.height, block.block_hash
                        )
                    ),
                )
            )
    return chain, events


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_no_interleaving_commits_out_of_order(data, request):
    """Whatever order headers, payloads, certificates, and window expiries
    land in, the ledger only ever grows by direct chain extension."""
    signers3 = request.getfixturevalue("signers3")
    validators3 = request.getfixturevalue("validators3")
    replica = AlterBFTReplica(0, validators3, _pipelined_config(4), signers3[0])
    ctx = FakeContext(node_id=0, n=3)
    ctx.bind_replica(replica)
    replica.on_start()
    chain, events = _build_stream(signers3, replica)
    order = data.draw(st.permutations(list(range(len(events)))))
    chain_hashes = [b.block_hash for b in chain]

    def assert_prefix():
        committed = replica.ledger.all_hashes()[1:]  # [0] is genesis
        assert list(committed) == chain_hashes[: len(committed)]

    for index in order:
        _, msg = events[index]
        replica.handle(1 if not isinstance(msg, VoteMsg) else msg.vote.voter, msg)
        assert_prefix()
        # Occasionally let a pending commit window expire mid-stream.
        if data.draw(st.booleans()) and "commit_wait" in ctx.pending_tags():
            ctx.fire_timer("commit_wait")
            assert_prefix()
    while "commit_wait" in ctx.pending_tags():
        ctx.fire_timer("commit_wait")
        assert_prefix()


# ---------------------------------------------------------------------------
# The pipelined scenario family
# ---------------------------------------------------------------------------


class TestPipelinedScenarioFamily:
    def test_family_shape(self):
        scenarios = grid(families=("pipelined",))
        assert len(scenarios) == 120
        assert all(s.protocol == "alterbft" for s in scenarios)
        assert {s.pipeline_depth for s in scenarios} == set(FAMILIES["pipelined"].depths)
        assert "equivocate-inflight" in FAMILIES["pipelined"].behaviors
        assert "withhold-suffix" in FAMILIES["pipelined"].behaviors

    def test_pd_flag_roundtrip(self):
        sid = "alterbft:equivocate-inflight:adversarial:3:pd4"
        scenario = parse_scenario_id(sid)
        assert scenario.pipeline_depth == 4
        assert scenario.scenario_id == sid

    def test_depth_reaches_protocol_config(self):
        scenario = parse_scenario_id("alterbft:withhold-suffix:calibrated:1:pd2")
        cfg = build_config(scenario)
        cfg.validate()
        assert cfg.protocol_config.pipeline_depth == 2

    def test_pipelined_configs_validate(self):
        for scenario in grid(families=("pipelined",), seeds=1):
            build_config(scenario).validate()

    def test_pipelined_scenario_passes_and_replays_identically(self):
        from repro.check.runner import run_scenario

        scenario = parse_scenario_id(
            "alterbft:equivocate-inflight:adversarial:1:dur3:pd4"
        )
        first = run_scenario(scenario)
        assert first.ok, [str(v) for v in first.violations]
        second = run_scenario(scenario)
        assert second.fingerprint == first.fingerprint
