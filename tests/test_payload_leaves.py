"""Merkle leaves taken from the transactions' own bytes ≡ leaves re-encoded.

A ``Transaction`` holds the bytes it was decoded from (``tx.wire``), and a
``BlockPayload`` hashes exactly those as its Merkle leaves — nothing is
encoded for a root, on the leader or on a follower.  That is only sound
because the decoder is canonical: the bytes a transaction arrived as *are*
``encode(tx)``.  These tests pin the equivalence on every path a payload
comes off the wire by, and the two ways it must fail (tampered bytes,
non-canonical bytes).
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.common import make_config
from repro.config import ProtocolConfig
from repro.consensus.validators import ValidatorSet
from repro.codec import decode, encode, encoded_size
from repro.core.protocol import AlterBFTReplica
from repro.crypto.erasure import decode_shares, encode_shares
from repro.crypto.merkle import MerkleTree
from repro.errors import CodecError
from repro.runner.cluster import build_cluster
from repro.types.block import Block, BlockPayload, genesis_block, make_block
from repro.types.certificates import genesis_qc
from repro.types.messages import (
    BlockRangeResponseMsg,
    PayloadMsg,
    PayloadResponseMsg,
)
from repro.types.transaction import Transaction
from tests import codec_oracle


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
    """Root over leaves built by the generic encoder's oracle twin."""
    return MerkleTree([codec_oracle.encode(tx) for tx in payload.transactions]).root


def _assert_seeded(decoded: BlockPayload, original: BlockPayload) -> None:
    assert isinstance(decoded.transactions, tuple)
    assert decoded == original
    # The leaves are the bytes each transaction already holds ...
    with pytest.MonkeyPatch.context() as patch:
        hashed = []
        patch.setattr(
            "repro.types.block.MerkleTree", lambda leaves: hashed.extend(leaves) or MerkleTree(leaves)
        )
        assert decoded.merkle_root == _reference_root(original)
    assert len(hashed) == len(decoded.transactions)
    assert all(leaf is tx.wire for leaf, tx in zip(hashed, decoded.transactions))
    assert decoded.merkle_root == original.merkle_root
    # ... the payload keeps nothing of the frame it arrived in ...
    assert set(decoded.__dict__) == {"transactions", "merkle_root"}
    # ... and a transaction is three slots, none of them the frame (RSS).
    for tx in decoded.transactions:
        assert not hasattr(tx, "__dict__")
        assert len(tx.wire) == encoded_size(tx) and tx.wire == codec_oracle.encode(tx)


_SHAPES = [
    pytest.param(0, 0, id="empty"),
    pytest.param(1, 64, id="one"),
    pytest.param(3, 200, id="odd-3"),
    pytest.param(7, 1, id="odd-7"),
    pytest.param(129, 130, id="odd-129"),
    pytest.param(400, 1024, id="400x1KiB"),
]


@pytest.mark.parametrize("count, tx_bytes", _SHAPES)
def test_bare_and_nested_payloads(count, tx_bytes):
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
    # A whole block, as the fetch's range responses and snapshots carry them.
    justify = genesis_qc("alterbft", digest)
    response = decode(encode(BlockRangeResponseMsg(justify=justify, blocks=(block,), headers=())))
    (decoded_block,) = response.blocks
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


def test_ill_typed_payload_field_does_not_raise_in_the_decoder(signers3):
    """Anything but a tuple of ``Transaction`` where ``transactions``
    belongs is a ``CodecError`` — bare or inside a payload message — and
    the honest payload after it is stored as ever."""
    block = make_block(1, 1, genesis_block().block_hash, _payload(2, 10).transactions, 0)
    replica = AlterBFTReplica(
        1, ValidatorSet.synchronous(3, 1), ProtocolConfig(n=3, f=1), signers3[1]
    )
    replica.store.add_header(block.header)
    for junk in (5, None, b"xx", [1, 2], (1, b"two", ("three",)), block.payload.transactions + (7,)):
        payload = BlockPayload(transactions=junk)
        with pytest.raises(CodecError):
            decode(encode(payload))
        with pytest.raises(CodecError):
            decode(encode(PayloadMsg(epoch=1, height=1, block_hash=block.block_hash, payload=payload)))
    honest = PayloadMsg(epoch=1, height=1, block_hash=block.block_hash, payload=block.payload)
    replica.handle(0, decode(encode(honest)))
    assert replica.store.has_payload(block.block_hash)
