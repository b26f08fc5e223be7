"""Signed statements and certificates: one behaviour battery for every
kind × scheme, the retired list form refused, and the hostile shapes a
Byzantine peer can put in a well-framed message.

``tests/test_wire_compat.py`` pins the bytes; this file pins the verdicts.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines.hotstuff import NEWVIEW_DOMAIN as HS_NEWVIEW_DOMAIN
from repro.baselines.hotstuff import HotStuffReplica
from repro.baselines.pbft import COMMIT_PHASE, PREPARE_PHASE, VIEWCHANGE_DOMAIN, PBFTReplica
from repro.baselines.pbft import NEWVIEW_DOMAIN as PBFT_NEWVIEW_DOMAIN
from repro.baselines.sync_hotstuff import SyncHotStuffReplica
from repro.codec import decode, encode
from repro.config import ProtocolConfig
from repro.consensus.validators import ValidatorSet
from repro.core.protocol import AlterBFTReplica
from repro.crypto.keystore import build_cluster_keys
from repro.errors import VerificationError
from repro.recovery.manager import RANGE, STATUS
from repro.runner.registry import attach_subsystems
from repro.types.block import make_block
from repro.types.certificates import (
    BLAME,
    CHECKPOINT,
    DELTA_ADJUST,
    VOTE,
    AggregateQuorumCertificate,
    Blame,
    BlameCertificate,
    Certificate,
    CheckpointCertificate,
    CheckpointVote,
    DeltaAdjust,
    DeltaAdjustCertificate,
    QuorumCertificate,
    Vote,
    genesis_qc,
    is_genesis_qc,
    signing_bytes,
)
from repro.types.messages import (
    PROPOSAL_DOMAIN,
    BlameCertMsg,
    BlameMsg,
    BlockRangeResponseMsg,
    CheckpointVoteMsg,
    DeltaAdjustCertMsg,
    DeltaAdjustMsg,
    HSNewViewMsg,
    HSProposalMsg,
    PBFTCommitMsg,
    PBFTNewViewMsg,
    PBFTPrepareMsg,
    PBFTPrePrepareMsg,
    PBFTSyncReplyMsg,
    PBFTViewChangeMsg,
    ProposalHeaderMsg,
    SHProposalMsg,
    StatusMsg,
    StatusResponseMsg,
    VoteMsg,
    proposal_signing_bytes,
)
from tests.conftest import FakeContext

#: kind → (signed-statement class, one statement by field name).
KINDS = {
    VOTE: (Vote, dict(protocol="alterbft", phase=0, epoch=2, height=5, block_hash=b"\x11" * 32)),
    BLAME: (Blame, dict(protocol="alterbft", epoch=4)),
    CHECKPOINT: (
        CheckpointVote,
        dict(protocol="alterbft", height=8, block_hash=b"\x22" * 32, state_digest=b"\x33" * 32),
    ),
    DELTA_ADJUST: (DeltaAdjust, dict(protocol="alterbft", seq=1, rung=2)),
}

#: Five validators, quorum three — and a sixth registered key (id 5) that
#: is *not* a validator, to tell registry membership from set membership.
VALIDATORS = ValidatorSet.synchronous(5, 2)
_SIGNERS = {}


def signers_for(scheme: str):
    if scheme not in _SIGNERS:
        _SIGNERS[scheme] = build_cluster_keys(scheme, 6)
    return _SIGNERS[scheme]


def signed_by(kind, signer, **changes):
    cls, statement = KINDS[kind]
    return cls.create(signer, **{**statement, **changes})


def tampered(value):
    """A different value of the same type."""
    if type(value) is str:
        return value + "x"
    if type(value) is int:
        return value + 1
    return bytes(b ^ 0xFF for b in value)


def flip(signature: bytes) -> bytes:
    return bytes([signature[0] ^ 1]) + signature[1:]


@pytest.fixture(params=["hashsig", "schnorr"])
def signers(request):
    return signers_for(request.param)


@pytest.fixture(params=list(KINDS), ids=lambda kind: kind.domain)
def kind(request):
    return request.param


def certify(kind, signers, ids, **changes):
    return Certificate.assemble([signed_by(kind, signers[i], **changes) for i in ids], signers[0])


#: Kind of statement → its retired list form (``(id, signature)`` pairs
#: where the bitmap and aggregate now are), kept only unsigned.
LIST_FORMS = {
    VOTE: QuorumCertificate,
    BLAME: BlameCertificate,
    CHECKPOINT: CheckpointCertificate,
    DELTA_ADJUST: DeltaAdjustCertificate,
}


def assert_list_form_refused(kind, signers):
    """A valid quorum in the retired list form, as a peer can still send
    it, is not a well-formed certificate and does not verify."""
    signed = [signed_by(kind, s) for s in signers[:3]]
    pairs = tuple(sorted(s.proof for s in signed))
    cert = decode(encode(LIST_FORMS[kind](*signed[0].statement, pairs)))
    assert not kind.is_certificate(cert)
    assert not cert.verify(signers[1], VALIDATORS)


@pytest.fixture(params=[False, True], ids=["raw", "aggregate"])
def aggregate(request, kind, signers):
    """The proof form.  The raw ``(id, signature)`` list is retired, so the
    raw variant of each test first holds that a valid quorum in it is
    refused (in every kind, under both schemes); every body then runs on
    the aggregate form, the only one assembled."""
    if not request.param:
        assert_list_form_refused(kind, signers)
    return request.param


class TestSignedStatements:
    def test_verifies_and_survives_the_wire(self, kind, signers):
        signed = signed_by(kind, signers[1])
        assert kind.is_signed(signed) and signed.verify(signers[2])
        received = decode(encode(signed))
        assert received == signed and "_verify_memo" not in received.__dict__
        assert received.verify(signers[0])

    def test_every_field_is_covered_by_the_signature(self, kind, signers):
        signed = signed_by(kind, signers[1])
        for field in kind.fields:
            forged = dataclasses.replace(signed, **{field: tampered(getattr(signed, field))})
            assert kind.is_signed(forged) and not forged.verify(signers[2]), field
        signer_id, signature = signed.proof
        other = type(signed)(*signed.statement, signer_id + 1, signature)
        assert not other.verify(signers[2])
        assert not type(signed)(*signed.statement, signer_id, flip(signature)).verify(signers[2])

    def test_memo_is_per_registry_and_never_copied(self, kind, signers):
        signed = signed_by(kind, signers[1])
        assert signed.verify(signers[2])
        memo = signed.__dict__["_verify_memo"]
        assert signed.verify(signers[3]) and signed.__dict__["_verify_memo"] is memo
        strangers = build_cluster_keys(signers[0].scheme.name, 3, seed=b"another-cluster")
        assert not signed.verify(strangers[0])
        assert signed.verify(signers[2])
        assert "_verify_memo" not in dataclasses.replace(signed).__dict__


class TestCertificates:
    def test_quorum_verifies_in_the_form_asked_for(self, kind, aggregate, signers):
        cert = certify(kind, signers, (3, 0, 2))
        assert type(cert) is kind.certificate and cert.signer_bits == 0b1101
        assert cert.statement == tuple(KINDS[kind][1].values())
        assert cert.signer_ids == (0, 2, 3) and cert.signer_count == 3
        assert kind.is_certificate(cert) and cert.verify(signers[1], VALIDATORS)
        received = decode(encode(cert))
        assert received == cert and received.verify(signers[4], VALIDATORS)

    def test_below_quorum_rejected(self, kind, aggregate, signers):
        assert not certify(kind, signers, (0, 1)).verify(signers[1], VALIDATORS)

    def test_duplicate_signer_rejected(self, kind, aggregate, signers):
        # A bitmap cannot say "twice"; claiming a third signer for a
        # two-signer aggregate is the nearest forgery.
        padded = dataclasses.replace(certify(kind, signers, (0, 1)), signer_bits=0b111)
        assert padded.signer_count == 3
        assert not padded.verify(signers[1], VALIDATORS)

    def test_forged_signature_rejected(self, kind, aggregate, signers):
        cert = certify(kind, signers, (0, 1, 2))
        forged = dataclasses.replace(cert, agg_signature=flip(cert.agg_signature))
        assert not forged.verify(signers[1], VALIDATORS)

    def test_every_field_is_covered_by_the_proof(self, kind, aggregate, signers):
        cert = certify(kind, signers, (0, 1, 2))
        for field in kind.fields:
            forged = dataclasses.replace(cert, **{field: tampered(getattr(cert, field))})
            assert kind.is_certificate(forged), field
            assert not forged.verify(signers[1], VALIDATORS), field

    def test_signer_outside_the_validator_set_rejected(self, kind, aggregate, signers):
        # Replica 5 holds a registered key and signs validly, but the
        # validator set has five members: ids 0..4.
        outsider = certify(kind, signers, (0, 1, 5))
        assert not outsider.verify(signers[1], VALIDATORS)
        assert outsider.verify(signers[1], ValidatorSet.synchronous(6, 2))
        cert = certify(kind, signers, (0, 1, 2))
        unknown = dataclasses.replace(cert, signer_bits=cert.signer_bits | 1 << 40)
        assert not unknown.verify(signers[1], ValidatorSet(n=64, f=2, quorum=3))

    def test_proof_from_another_domain_rejected(self, kind, aggregate, signers):
        """Domain separation: the same bytes signed as another kind of
        statement prove nothing about this one."""
        cert = certify(kind, signers, (0, 1, 2))
        message = signing_bytes(*cert.statement)
        for other in KINDS:
            if other is kind:
                continue
            pairs = [(s.replica_id, s.digest_and_sign(other.domain, message)) for s in signers[:3]]
            lifted = dataclasses.replace(
                cert, agg_signature=signers[0].aggregate_digest(other.domain, message, pairs)
            )
            assert not lifted.verify(signers[1], VALIDATORS), other.domain

    def test_memo_is_per_registry_and_per_validator_set(self, kind, aggregate, signers):
        cert = certify(kind, signers, (0, 1, 2))
        stricter = ValidatorSet(n=5, f=1, quorum=4)
        strangers = build_cluster_keys(signers[0].scheme.name, 5, seed=b"another-cluster")
        assert cert.verify(signers[1], VALIDATORS)
        memo = cert.__dict__["_verify_memo"]
        assert cert.verify(signers[2], ValidatorSet.synchronous(5, 2))
        assert cert.__dict__["_verify_memo"] is memo
        assert not cert.verify(signers[1], stricter)
        assert cert.verify(signers[1], VALIDATORS)
        assert not cert.verify(strangers[1], VALIDATORS)
        assert cert.verify(signers[1], VALIDATORS)
        assert "_verify_memo" not in dataclasses.replace(cert).__dict__

    def test_assemble_refuses_divergent_statements(self, kind, aggregate, signers):
        votes = [signed_by(kind, s) for s in signers[:3]]
        for field in kind.fields:
            changed = tampered(getattr(votes[0], field))
            odd = signed_by(kind, signers[3], **{field: changed})
            with pytest.raises(VerificationError):
                Certificate.assemble(votes + [odd], signers[0])
        foreign = signed_by(next(k for k in KINDS if k is not kind), signers[3])
        with pytest.raises(VerificationError):
            Certificate.assemble(votes + [foreign], signers[0])


@pytest.mark.parametrize("protocol", ["alterbft", "sync-hotstuff", "hotstuff", "pbft"])
def test_every_certificate_a_run_forms_is_an_aggregate(protocol, monkeypatch):
    """A run with the epoch-1 leader crashed; on the AlterBFT family also
    checkpointing and the guard, with a slow link that moves Δ — so every
    kind of certificate the protocol has is formed, and each is the
    aggregate form."""
    from repro.bench.common import make_config
    from repro.runner.cluster import build_cluster

    formed = []
    assemble = Certificate.assemble

    def recording(signed, signer):
        formed.append(assemble(signed, signer))
        return formed[-1]

    monkeypatch.setattr(Certificate, "assemble", staticmethod(recording))
    family = protocol in ("alterbft", "sync-hotstuff")
    flags = dict(f=2, guard_enabled=True, checkpoint_interval=4) if family else {}
    faults = ((1, "crash@0.8"),) + (((2, "slow-link@0.3:1.0"),) if family else ())
    cluster = build_cluster(
        make_config(protocol, rate=500.0, duration=2.0, seed=7, faults=faults, **flags)
    )
    cluster.start()
    cluster.run()
    assert all(type(cert) is cert.KIND.certificate for cert in formed)
    kinds = {cert.KIND for cert in formed}
    assert kinds == ({VOTE, BLAME, CHECKPOINT, DELTA_ADJUST} if family else {VOTE})


class TestGenesisCertificate:
    def test_genesis_qc_is_the_empty_rank_zero_certificate(self):
        qc = genesis_qc("alterbft", b"\x00" * 32)
        assert dataclasses.astuple(qc) == ("alterbft", 0, 0, 0, b"\x00" * 32, ())
        assert qc.rank == (0, 0) and qc.signer_count == 0 and is_genesis_qc(qc)
        assert VOTE.is_certificate(qc)
        assert not qc.verify(signers_for("hashsig")[0], VALIDATORS)

    def test_only_an_unsigned_rank_zero_certificate_is_genesis(self):
        signers = signers_for("hashsig")
        assert not is_genesis_qc(certify(VOTE, signers, (0, 1, 2)))
        signed = Certificate.assemble(
            [signed_by(VOTE, s, epoch=0, height=0) for s in signers[:3]], signers[0]
        )
        assert not is_genesis_qc(signed)
        assert not is_genesis_qc(dataclasses.replace(genesis_qc("alterbft", b""), height=1))
        assert is_genesis_qc(AggregateQuorumCertificate("alterbft", 0, 0, 0, b"", 0, b""))


# -- hostile shapes ------------------------------------------------------------
#
# The decoder does not type fields, so every value below arrives intact
# in a well-framed, canonical message.  None of them may raise out of
# ``BaseReplica.handle``: over TCP that kills the connection's reader
# task instead of dropping one message.

N, F = 4, 1
CLUSTER = build_cluster_keys("hashsig", N)


def hostile_signed(kind, **claims):
    """Ill-typed variants of a signed statement, by what is wrong.

    ``claims`` are what the receiver looks at first (its own protocol
    name, the phase a PBFT message is for), so that no shape is dropped
    for one of those before its type matters."""
    signed = signed_by(kind, CLUSTER[1], **claims)
    id_field = dataclasses.fields(signed)[-2].name
    another = BLAME if kind is VOTE else VOTE
    shapes = {
        "not-an-object": 5,
        "none": None,
        "a-certificate": certify(kind, CLUSTER, (1, 2, 3), **claims),
        "another-kind": signed_by(another, CLUSTER[1], protocol=claims["protocol"]),
        "signer-str": dataclasses.replace(signed, **{id_field: "x"}),
        "signer-list": dataclasses.replace(signed, **{id_field: []}),
        "signer-bool": dataclasses.replace(signed, **{id_field: True}),
        "signature-int": dataclasses.replace(signed, signature=5),
        "signature-none": dataclasses.replace(signed, signature=None),
    }
    for field in kind.fields:
        for name, value in (("list", []), ("none", None), ("float", 1.5), ("dict", {})):
            shapes[f"{field}-{name}"] = dataclasses.replace(signed, **{field: value})
    return shapes


def hostile_certificate(kind, **claims):
    """Ill-typed variants of a certificate, and the retired list form
    carrying anything at all (a valid quorum included)."""
    cert = certify(kind, CLUSTER, (1, 2, 3), **claims)
    signature = signed_by(kind, CLUSTER[1], **claims).signature
    another = BLAME if kind is VOTE else VOTE
    protocol = claims["protocol"]
    shapes = {
        "not-an-object": 5,
        "none": None,
        "a-signed-statement": signed_by(kind, CLUSTER[1], **claims),
        "another-kind": certify(another, CLUSTER, (1, 2, 3), protocol=protocol),
        "signature-int": dataclasses.replace(cert, agg_signature=5),
        "signature-none": dataclasses.replace(cert, agg_signature=None),
        "bits-str": dataclasses.replace(cert, signer_bits="x"),
        "bits-negative": dataclasses.replace(cert, signer_bits=-6),
        "bits-bool": dataclasses.replace(cert, signer_bits=True),
        "bits-list": dataclasses.replace(cert, signer_bits=[1, 2, 3]),
    }
    pairs = tuple(signed_by(kind, CLUSTER[i], **claims).proof for i in (1, 2, 3))
    proofs = {
        "signed": pairs,
        "proof-int": 5,
        "proof-none": None,
        "proof-bytes": signature,
        "proof-list": [[1, signature], [2, signature], [3, signature]],
        "pairs-int": (1,),
        "pairs-short": ((1,), (2,), (3,)),
        "pairs-long": ((1, signature, 0), (2, signature, 0), (3, signature, 0)),
        "pairs-lists": ([1, signature], [2, signature], [3, signature]),
        "id-list": (([], signature), ([], signature), ([], signature)),
        "id-str": (("1", signature), ("2", signature), ("3", signature)),
        "id-bool": ((True, signature), (2, signature), (3, signature)),
        "id-huge": ((1 << 70, signature), (2, signature), (3, signature)),
        "signature-int": ((0, 5), (1, 5), (2, 5)),
        "signature-none": ((1, None), (2, signature), (3, signature)),
    }
    for name, proof in proofs.items():
        shapes[f"list-{name}"] = LIST_FORMS[kind](*cert.statement, proof)
    for field in kind.fields:
        for name, value in (("list", []), ("none", None), ("float", 1.5), ("dict", {})):
            shapes[f"{field}-{name}"] = dataclasses.replace(cert, **{field: value})
    return shapes


class RecordingContext(FakeContext):
    def __init__(self, node_id: int, n: int) -> None:
        super().__init__(node_id, n)
        self.traced = []

    def trace(self, kind: str, **detail) -> None:
        self.traced.append(kind)


def build_replica(cls, quorum_style):
    validators = getattr(ValidatorSet, quorum_style)(N, F)
    config = ProtocolConfig(
        n=N, f=F, delta=0.005, epoch_timeout=1.0, guard_enabled=True, checkpoint_interval=4
    )
    replica = cls(0, validators, config, CLUSTER[0])
    ctx = RecordingContext(0, N)
    ctx.bind_replica(replica)
    attach_subsystems(replica)  # recovery + guard on the AlterBFT family, nothing elsewhere
    replica.on_start()
    return replica, ctx


def signed_block(replica, epoch, height, proposer):
    block = make_block(epoch, height, replica.store.genesis.block_hash, (), proposer)
    signature = CLUSTER[proposer].digest_and_sign(
        PROPOSAL_DOMAIN, proposal_signing_bytes(block.block_hash)
    )
    return block, signature


def alterbft_carriers(replica):
    """(kind, is a certificate, message builder[, claims]) for every field
    of every message an AlterBFT-family replica handles that carries one."""
    block, signature = signed_block(replica, 1, 1, proposer=1)
    tip = genesis_qc(replica.protocol_name, replica.store.genesis.block_hash)

    def proposal(x):
        if isinstance(replica, SyncHotStuffReplica):
            return SHProposalMsg(block=block, signature=signature, justify=x)
        return ProposalHeaderMsg(header=block.header, signature=signature, justify=x)

    def status_response(**fields):
        replica.subsystems["recovery"].state = STATUS
        return StatusResponseMsg(
            **{"sender": 1, "epoch": 1, "ledger_height": 0, "checkpoint": None, "tip": tip, **fields}
        )

    def range_response(x):
        replica.subsystems["recovery"].state = RANGE
        return BlockRangeResponseMsg(justify=x, blocks=(), headers=())

    return [
        (VOTE, False, lambda x: VoteMsg(vote=x)),
        (VOTE, True, proposal),
        (VOTE, True, lambda x: StatusMsg(sender=1, new_epoch=1, high_qc=x)),
        (VOTE, True, lambda x: status_response(tip=x)),
        (VOTE, True, range_response),
        (BLAME, False, lambda x: BlameMsg(blame=x)),
        (BLAME, True, lambda x: BlameCertMsg(cert=x)),
        (CHECKPOINT, False, lambda x: CheckpointVoteMsg(vote=x)),
        (CHECKPOINT, True, lambda x: status_response(checkpoint=x)),
        (DELTA_ADJUST, False, lambda x: DeltaAdjustMsg(adjust=x)),
        (DELTA_ADJUST, True, lambda x: DeltaAdjustCertMsg(cert=x)),
    ]


def hotstuff_carriers(replica):
    block, signature = signed_block(replica, 1, 1, proposer=1)
    new_view = CLUSTER[1].digest_and_sign(HS_NEWVIEW_DOMAIN, encode(2))
    return [
        (VOTE, False, lambda x: VoteMsg(vote=x)),
        (VOTE, True, lambda x: HSProposalMsg(block=block, signature=signature, justify=x)),
        (VOTE, True, lambda x: HSNewViewMsg(sender=1, view=2, high_qc=x, signature=new_view)),
    ]


def pbft_carriers(replica):
    block, _ = signed_block(replica, 1, 1, proposer=1)

    def view_change(sender=1, **fields):
        fields = {"last_committed": 0, "commit_proof": None, "prepared": (), **fields}
        signature = CLUSTER[sender].digest_and_sign(
            VIEWCHANGE_DOMAIN, encode((2, fields["last_committed"]))
        )
        return PBFTViewChangeMsg(sender=sender, new_view=2, signature=signature, **fields)

    def new_view(x):
        signature = CLUSTER[2].digest_and_sign(PBFT_NEWVIEW_DOMAIN, encode(2))
        changes = tuple(view_change(s, prepared=((1, x, block),)) for s in (1, 2, 3))
        return PBFTNewViewMsg(new_view=2, view_changes=changes, signature=signature)

    prepare = dict(phase=PREPARE_PHASE, epoch=1, height=1, block_hash=block.block_hash)
    commit = {**prepare, "phase": COMMIT_PHASE}
    return [
        (VOTE, False, lambda x: PBFTPrepareMsg(vote=x), prepare),
        (VOTE, False, lambda x: PBFTCommitMsg(vote=x), commit),
        (VOTE, True, lambda x: view_change(last_committed=1, commit_proof=x), commit),
        (VOTE, True, lambda x: view_change(prepared=((1, x, block),)), prepare),
        (VOTE, True, new_view, prepare),
        (VOTE, True, lambda x: PBFTSyncReplyMsg(entries=((block, x),)), commit),
    ]


PROTOCOLS = {
    "alterbft": (AlterBFTReplica, "synchronous", alterbft_carriers),
    "sync-hotstuff": (SyncHotStuffReplica, "synchronous", alterbft_carriers),
    "hotstuff": (HotStuffReplica, "partially_synchronous", hotstuff_carriers),
    "pbft": (PBFTReplica, "partially_synchronous", pbft_carriers),
}


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_hostile_shapes_are_dropped_by_every_handler(protocol):
    cls, quorum_style, carriers = PROTOCOLS[protocol]
    replica, ctx = build_replica(cls, quorum_style)
    delivered = 0
    for kind, is_certificate, build, *claims in carriers(replica):
        claims = dict(*claims, protocol=replica.protocol_name)
        if is_certificate:
            shapes = hostile_certificate(kind, **claims)
        else:
            shapes = hostile_signed(kind, **claims)
        for name, shape in shapes.items():
            msg = decode(encode(build(shape)))
            before = len(ctx.traced)
            replica.handle(1, msg)  # must not raise
            dropped = ctx.traced[before:]
            label = f"{type(msg).__name__}/{kind.domain}/{name}"
            assert set(dropped) <= {"verification_failed"}, label
            # Catch-up replies are dropped silently, like any other
            # reply that fails verification there.
            if not isinstance(msg, (StatusResponseMsg, BlockRangeResponseMsg)):
                assert dropped == ["verification_failed"], label
            delivered += 1
    assert delivered > 100
    assert not replica.crashed and replica.ledger.height == 0


#: protocol → its proposal message around a block (every other field valid).
BLOCK_CARRIERS = {
    "sync-hotstuff": lambda block, signature, tip: SHProposalMsg(
        block=block, signature=signature, justify=tip
    ),
    "hotstuff": lambda block, signature, tip: HSProposalMsg(
        block=block, signature=signature, justify=tip
    ),
    "pbft": lambda block, signature, tip: PBFTPrePrepareMsg(
        view=1, seq=1, block=block, signature=signature
    ),
}


@pytest.mark.parametrize("protocol", list(BLOCK_CARRIERS))
def test_an_ill_typed_proposal_block_is_refused(protocol):
    """The baselines' proposals carry a whole block; one that is not a
    block, or holds a header or payload of the wrong type, is a failed
    verification, not an exception out of ``handle``."""
    cls, quorum_style, _ = PROTOCOLS[protocol]
    replica, ctx = build_replica(cls, quorum_style)
    block, signature = signed_block(replica, 1, 1, proposer=1)
    tip = genesis_qc(replica.protocol_name, replica.store.genesis.block_hash)
    shapes = [
        5,
        None,
        (block.header, block.payload),
        dataclasses.replace(block, header=5),
        dataclasses.replace(block, header=dataclasses.replace(block.header, epoch="1")),
        dataclasses.replace(block, payload=5),
    ]
    stored = len(replica.store)
    for shape in shapes:
        msg = decode(encode(BLOCK_CARRIERS[protocol](shape, signature, tip)))
        before = len(ctx.traced)
        replica.handle(1, msg)  # must not raise
        assert ctx.traced[before:] == ["verification_failed"], repr(shape)
    assert len(replica.store) == stored


def test_divergent_vote_in_a_quorum_bucket_is_dropped():
    """Votes are bucketed by (phase, epoch, block hash); a validly signed
    vote for the same hash at another height completes the count but not
    the certificate, and must not raise out of ``handle`` either."""
    replica, ctx = build_replica(AlterBFTReplica, "synchronous")
    block_hash = b"\x07" * 32
    replica.handle(1, VoteMsg(vote=Vote.create(CLUSTER[1], "alterbft", 1, 1, block_hash)))
    assert ctx.traced == []
    replica.handle(2, VoteMsg(vote=Vote.create(CLUSTER[2], "alterbft", 1, 2, block_hash)))
    assert ctx.traced == ["verification_failed"]
    assert replica.qc_for(0, 1, block_hash) is None
