"""Merkle leaves hashed from the received frame ≡ leaves re-encoded.

A decoded ``BlockPayload`` keeps a reference to the frame it arrived in
(``BlockPayload._decoded_from``) and hashes its Merkle leaves as slices of
it the first time ``merkle_root`` is asked for.  That is only sound because
the decoder is canonical: every slice *is* ``tx.encoded()``.  These tests
pin the equivalence on every path a payload comes off the wire by, and the
two ways it must fail (tampered bytes, non-canonical bytes).
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.common import make_config
from repro.codec import decode, encode
from repro.codec.core import SIZE_CACHE_ATTR
from repro.core.protocol import AlterBFTReplica
from repro.crypto.erasure import decode_shares, encode_shares
from repro.crypto.merkle import MerkleTree
from repro.errors import CodecError
from repro.runner.cluster import build_cluster
from repro.types.block import Block, BlockPayload, make_block
from repro.types.certificates import genesis_qc
from repro.types.messages import (
    BlockResponseMsg,
    PayloadMsg,
    PayloadResponseMsg,
    ProposalHeaderMsg,
)
from repro.types.transaction import Transaction


def _payload(count: int, tx_bytes: int, seed: int = 1) -> BlockPayload:
    rng = random.Random(seed)
    return BlockPayload(
        transactions=tuple(
            Transaction(
                client_id=rng.randrange(-3, 300),
                seq=rng.choice((i, i * 1000, 2**40 + i)),  # 1-, 2- and 6-byte varints
                submitted_at=rng.random() * 100,
                payload=rng.randbytes(tx_bytes),
            )
            for i in range(count)
        )
    )


def _reference_root(payload: BlockPayload) -> bytes:
    """Root over re-encoded leaves (``tx.encoded()`` is ``encode(tx)``)."""
    return MerkleTree([encode(tx) for tx in payload.transactions]).root


def _assert_seeded(decoded: BlockPayload, original: BlockPayload) -> None:
    assert isinstance(decoded.transactions, tuple)
    assert decoded == original
    # The root comes from the frame: no transaction is encoded for it ...
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Transaction, "encoded", _must_not_encode)
        assert decoded.merkle_root == _reference_root(original)
    assert decoded.merkle_root == original.merkle_root
    # ... the frame is let go once it has been used ...
    assert set(decoded.__dict__) == {"transactions", "merkle_root"}
    # ... and no size memo is left on every transaction (RSS).
    assert all(SIZE_CACHE_ATTR not in tx.__dict__ for tx in decoded.transactions)


def _must_not_encode(self):
    raise AssertionError("tx.encoded() called on a payload that came off the wire")


_SHAPES = [
    pytest.param(0, 0, id="empty"),
    pytest.param(1, 64, id="one"),
    pytest.param(3, 200, id="odd-3"),
    pytest.param(7, 1, id="odd-7"),
    pytest.param(129, 130, id="odd-129"),
    pytest.param(400, 1024, id="400x1KiB"),
]


@pytest.mark.parametrize("count, tx_bytes", _SHAPES)
def test_bare_and_nested_payloads(count, tx_bytes, signers3):
    payload = _payload(count, tx_bytes)
    digest = b"\x07" * 32
    _assert_seeded(decode(encode(payload)), payload)
    _assert_seeded(
        decode(encode(PayloadMsg(epoch=1, height=2, block_hash=digest, payload=payload))).payload,
        payload,
    )
    _assert_seeded(
        decode(encode(PayloadResponseMsg(block_hash=digest, payload=payload))).payload, payload
    )
    block = make_block(1, 1, digest, payload.transactions, proposer=0)
    proposal = ProposalHeaderMsg(
        header=block.header,
        signature=signers3[0].digest_and_sign("proposal", block.block_hash),
        justify=genesis_qc("alterbft", digest),
    )
    response = decode(encode(BlockResponseMsg(proposal=proposal, payload=payload)))
    _assert_seeded(response.payload, payload)
    assert Block(header=response.proposal.header, payload=response.payload).validate_payload()
    # A whole block (recovery's block-range and snapshot responses carry them).
    decoded_block = decode(encode(block))
    _assert_seeded(decoded_block.payload, payload)
    assert decoded_block.validate_payload()


@pytest.mark.parametrize("count, tx_bytes", _SHAPES)
def test_through_erasure_reconstruction(count, tx_bytes):
    """What ``dissem/manager.py::_maybe_reconstruct`` does with k shares."""
    payload = _payload(count, tx_bytes, seed=2)
    data = encode(payload)
    k, n = 3, 7
    shares = encode_shares(data, k, n)
    parity_only = {index: shares[index] for index in (3, 5, 6)}
    _assert_seeded(decode(decode_shares(parity_only, k, len(data))), payload)


def test_chunked_cluster_followers_hold_frame_hashed_roots():
    """End to end through the dissemination manager of a live cluster."""
    cfg = make_config("alterbft", f=1, rate=500.0, duration=1.5, seed=7, dissemination=True)
    cluster = build_cluster(cfg)
    cluster.start()
    cluster.run()
    checked = 0
    for replica in cluster.replicas:
        for height in range(1, replica.ledger.height + 1):
            block = replica.ledger.block_at(height)
            if block.header.proposer != replica.replica_id:  # reconstructed, not built
                assert block.payload.merkle_root == _reference_root(block.payload)
                assert block.payload.merkle_root == block.header.payload_root
                checked += 1
    assert checked > 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12), st.integers(0, 300), st.integers(0, 2**32))
def test_generated_payloads(count, tx_bytes, seed):
    payload = _payload(count, tx_bytes, seed)
    _assert_seeded(decode(encode(payload)), payload)


def test_flipped_byte_inside_a_transaction_fails_the_commitment():
    payload = _payload(5, 100)
    block = make_block(1, 1, b"\x01" * 32, payload.transactions, proposer=0)
    frame = bytearray(encode(payload))
    third = encode(payload.transactions[2])
    at = bytes(frame).index(third) + len(third) - 10  # inside its opaque bytes
    frame[at] ^= 0x01
    tampered = decode(bytes(frame))
    assert tampered != payload and len(tampered) == len(payload)
    assert tampered.merkle_root == _reference_root(tampered)  # still its own root
    assert not AlterBFTReplica._payload_matches(block.header, tampered)
    assert not Block(header=block.header, payload=tampered).validate_payload()
    assert AlterBFTReplica._payload_matches(block.header, decode(encode(payload)))


def test_non_minimal_seq_varint_rejected_at_decode():
    """Same transactions, other bytes: a root nobody could reproduce."""
    payload = _payload(3, 50)
    tx = dataclasses.replace(payload.transactions[1], seq=5)
    payload = BlockPayload(transactions=(payload.transactions[0], tx, payload.transactions[2]))
    frame = encode(payload)
    canonical = encode(tx)
    client = encode(tx.client_id)
    assert canonical[3 : 3 + len(client)] == client
    seq_at = 3 + len(client)  # struct tag, type id, field count, client_id
    assert canonical[seq_at : seq_at + 2] == b"\x03\x0a"  # int tag, zigzag(5)
    padded = canonical[: seq_at + 1] + b"\x8a\x00" + canonical[seq_at + 2 :]
    at = frame.index(canonical)
    with pytest.raises(CodecError, match="non-minimal"):
        decode(frame[:at] + padded + frame[at + len(canonical) :])
    assert decode(frame) == payload


def test_ill_typed_payload_field_does_not_raise_in_the_decoder():
    """``transactions`` is whatever the wire says; the hook must not care."""
    for junk in (5, None, b"xx", [1, 2]):
        decoded = decode(encode(BlockPayload(transactions=junk)))
        assert decoded.transactions == junk
        assert decoded.__dict__ == {"transactions": junk}  # no frame kept for it
    # A tuple of the wrong things still gets the root of its own bytes.
    mixed = (1, b"two", ("three",))
    decoded = decode(encode(BlockPayload(transactions=mixed)))
    assert decoded.merkle_root == MerkleTree([encode(item) for item in mixed]).root
