"""Transactions, blocks, and certificates."""

from __future__ import annotations

import dataclasses

import pytest

from repro.crypto.hashing import ZERO_DIGEST
from repro.types.block import (
    Block,
    BlockPayload,
    GENESIS_HEIGHT,
    genesis_block,
    make_block,
)
from repro.consensus.validators import ValidatorSet
from repro.types.certificates import (
    Blame,
    Certificate,
    Vote,
    genesis_qc,
    is_genesis_qc,
)
from repro.types.transaction import Transaction, make_transaction


class TestTransaction:
    def test_make_transaction(self):
        tx = make_transaction(3, 7, 1.5, 100)
        assert tx.client_id == 3 and tx.seq == 7
        assert len(tx.payload) == 100

    def test_tx_id_content_addressed(self):
        a = Transaction(1, 1, 0.0, b"x")
        b = Transaction(1, 1, 0.0, b"x")
        c = Transaction(1, 1, 0.0, b"y")
        assert a.tx_id == b.tx_id
        assert a.tx_id != c.tx_id

    def test_size_positive(self):
        assert make_transaction(0, 0, 0.0, 64).size > 64


class TestBlock:
    def test_genesis(self):
        g = genesis_block()
        assert g.height == GENESIS_HEIGHT
        assert g.parent == ZERO_DIGEST
        assert g.validate_payload()
        assert genesis_block().block_hash == g.block_hash  # deterministic

    def test_make_block_links_parent(self):
        g = genesis_block()
        txs = (make_transaction(0, 0, 0.0, 32),)
        block = make_block(epoch=1, height=1, parent=g.block_hash, transactions=txs, proposer=0)
        assert block.parent == g.block_hash
        assert block.height == 1
        assert block.validate_payload()
        assert block.header.payload_count == 1

    def test_payload_mismatch_detected(self):
        g = genesis_block()
        block = make_block(1, 1, g.block_hash, (make_transaction(0, 0, 0.0, 32),), 0)
        forged = Block(header=block.header, payload=BlockPayload(transactions=()))
        assert not forged.validate_payload()

    def test_block_hash_covers_payload_root(self):
        g = genesis_block()
        b1 = make_block(1, 1, g.block_hash, (make_transaction(0, 0, 0.0, 32),), 0)
        b2 = make_block(1, 1, g.block_hash, (make_transaction(0, 1, 0.0, 32),), 0)
        assert b1.block_hash != b2.block_hash


class TestVotesAndQCs:
    def test_vote_verify(self, signers3):
        vote = Vote.create(signers3[0], "alterbft", 2, 5, b"\x01" * 32)
        assert vote.verify(signers3[1])

    def test_vote_field_tampering_rejected(self, signers3):
        import dataclasses

        vote = Vote.create(signers3[0], "alterbft", 2, 5, b"\x01" * 32)
        for change in (
            {"epoch": 3},
            {"height": 6},
            {"block_hash": b"\x02" * 32},
            {"voter": 1},
            {"phase": 1},
            {"protocol": "pbft"},
        ):
            tampered = dataclasses.replace(vote, **change)
            assert not tampered.verify(signers3[1]), change

    def test_qc_from_votes_verifies(self, signers3, validators3):
        votes = tuple(
            Vote.create(s, "alterbft", 1, 1, b"\x09" * 32) for s in signers3[:2]
        )
        qc = Certificate.assemble(votes, signers3[0])
        assert qc.verify(signers3[2], validators3)
        assert qc.rank == (1, 1)

    def test_qc_below_quorum_rejected(self, signers3, validators3):
        votes = (Vote.create(signers3[0], "alterbft", 1, 1, b"\x09" * 32),)
        qc = Certificate.assemble(votes, signers3[0])
        assert not qc.verify(signers3[1], validators3)

    def test_qc_duplicate_voters_rejected(self, signers3, validators3):
        vote = Vote.create(signers3[0], "alterbft", 1, 1, b"\x09" * 32)
        # A bitmap cannot name voter 0 twice; naming a voter who never
        # signed is the nearest forgery.
        qc = dataclasses.replace(Certificate.assemble((vote,), signers3[0]), signer_bits=0b11)
        assert not qc.verify(signers3[1], validators3)

    def test_qc_forged_signature_rejected(self, signers3, validators3):
        votes = tuple(Vote.create(s, "alterbft", 1, 1, b"\x09" * 32) for s in signers3[:2])
        qc = Certificate.assemble(votes, signers3[0])
        # A different block, the same aggregate.
        forged = dataclasses.replace(qc, block_hash=b"\x08" * 32)
        assert not forged.verify(signers3[2], validators3)

    def test_rank_ordering(self):
        low = genesis_qc("alterbft", b"\x00" * 32)
        assert low.rank == (0, 0)
        assert (1, 5) > (1, 4) and (2, 1) > (1, 9)  # lexicographic epochs first

    def test_genesis_qc_detection(self):
        qc = genesis_qc("alterbft", b"\x00" * 32)
        assert is_genesis_qc(qc)


class TestBlames:
    def test_blame_verify(self, signers3):
        blame = Blame.create(signers3[0], "alterbft", 4)
        assert blame.verify(signers3[1])

    def test_blame_epoch_tampering_rejected(self, signers3):
        import dataclasses

        blame = Blame.create(signers3[0], "alterbft", 4)
        assert not dataclasses.replace(blame, epoch=5).verify(signers3[1])

    def test_blame_cert(self, signers3, validators3):
        blames = tuple(Blame.create(s, "alterbft", 4) for s in signers3[:2])
        cert = Certificate.assemble(blames, signers3[0])
        assert cert.verify(signers3[2], validators3)
        assert not cert.verify(signers3[2], ValidatorSet(n=3, f=0, quorum=3))

    def test_blame_cert_duplicates_rejected(self, signers3, validators3):
        blame = Blame.create(signers3[0], "alterbft", 4)
        cert = dataclasses.replace(Certificate.assemble((blame,), signers3[0]), signer_bits=0b11)
        assert not cert.verify(signers3[1], validators3)
