"""``Transaction`` is its wire bytes: the self-encoded-class seam of the codec.

An instance holds ``wire`` — exactly what the generic encoder would emit for
its four fields, checked here against the field-by-field reference encoder
in ``tests/codec_oracle.py`` — and decoding one is a check of those bytes in
place plus one slice.  The check is strict where the generic struct decoder
was not: a well-framed struct 10 whose fields have the wrong types used to
decode and fail somewhere later; now it is a ``CodecError``.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import decode, encode, encode_cached, encoded_size
from repro.codec.core import encode_fields, field_of
from repro.errors import CodecError
from repro.net.transport import CLIENT_TX
from repro.types.transaction import Transaction
from tests import codec_oracle

_ints = st.one_of(
    st.integers(-200, 200),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, -1, 63, 64, -64, -65, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1]),
)
_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, 1.7976931348623157e308]),
)
_payloads = st.one_of(st.binary(max_size=300), st.sampled_from([b"", b"\x00" * 127, b"\x01" * 128]))


def _same_float(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b) or (a != a and b != b)


@settings(max_examples=300, deadline=None)
@given(_ints, _ints, _floats, _payloads)
def test_wire_is_the_reference_encoding_and_fields_read_back(client_id, seq, submitted_at, payload):
    tx = Transaction(client_id, seq, submitted_at, payload)
    assert tx.wire == codec_oracle.encode(tx)
    assert encode(tx) == tx.wire and encode_cached(tx) == tx.wire
    assert encoded_size(tx) == tx.size == len(tx.wire)
    assert (tx.client_id, tx.seq, tx.payload) == (client_id, seq, payload)
    assert type(tx.submitted_at) is float and _same_float(tx.submitted_at, submitted_at)
    decoded = decode(tx.wire)
    assert type(decoded) is Transaction and decoded == tx and hash(decoded) == hash(tx)
    assert decoded.wire == tx.wire
    assert (decoded.client_id, decoded.seq, decoded.payload) == (client_id, seq, payload)
    assert _same_float(decoded.submitted_at, submitted_at)
    # Inside a container it is the same bytes, and comes back out of them.
    framed = encode(("client-tx", tx))
    assert framed == codec_oracle.encode(("client-tx", tx)) and framed.endswith(tx.wire)
    assert decode(framed) == ("client-tx", tx)


def test_one_mebibyte_payload():
    payload = bytes(range(256)) * 4096
    tx = Transaction(1, 2, 3.0, payload)
    assert tx.wire == codec_oracle.encode(tx)
    decoded = decode(tx.wire)
    assert decoded == tx and decoded.payload == payload and encoded_size(decoded) == len(tx.wire)


def test_a_decoded_transaction_pins_only_its_own_bytes():
    txs = tuple(Transaction(i, i, 0.5, bytes([i]) * 100) for i in range(50))
    frame = encode(txs)
    for tx, decoded in zip(txs, decode(frame)):
        assert decoded.wire == tx.wire and len(decoded.wire) == len(tx.wire) < len(frame)
        assert not hasattr(decoded, "__dict__")
    payload = decode(txs[3].wire).payload
    assert payload == txs[3].payload and payload is not decode(txs[3].wire).payload


def test_still_a_frozen_dataclass_to_look_at():
    tx = Transaction(client_id=7, seq=3, submitted_at=1.5, payload=b"abc")
    assert tx == Transaction(7, 3, 1.5, b"abc")
    assert [f.name for f in dataclasses.fields(Transaction)] == [
        "client_id",
        "seq",
        "submitted_at",
        "payload",
    ]
    moved = dataclasses.replace(tx, seq=5)
    assert (moved.client_id, moved.seq, moved.submitted_at, moved.payload) == (7, 5, 1.5, b"abc")
    assert moved != tx and moved.wire == codec_oracle.encode(moved)
    for name in ("seq", "wire", "payload", "anything"):
        with pytest.raises((dataclasses.FrozenInstanceError, AttributeError)):
            setattr(tx, name, 1)
    assert copy.deepcopy(tx) == tx and pickle.loads(pickle.dumps(tx)) == tx
    assert tx != tx.wire and tx != (7, 3, 1.5, b"abc")


def test_same_nan_compares_equal():
    """Equality is equality of ``wire``.  For every value but a NaN that is
    field equality; two transactions with the same NaN used to differ."""
    assert Transaction(1, 1, math.nan, b"") == Transaction(1, 1, math.nan, b"")
    assert Transaction(1, 1, 0.0, b"") != Transaction(1, 1, -0.0, b"")  # 0.0 == -0.0: stricter


@pytest.mark.parametrize(
    "fields",
    [
        pytest.param((b"7", 3, 1.5, b"abc"), id="client_id-bytes"),
        pytest.param((7, 3, 1.5, 9), id="payload-int"),
        pytest.param((7, 3, 1, b"abc"), id="submitted_at-int"),
        pytest.param((7, True, 1.5, b"abc"), id="seq-bool"),
        pytest.param((7, 3, 1.5, b"abc", None), id="fifth-field"),
        pytest.param((7, 3, 1.5), id="three-fields"),
        pytest.param((7, 3, 1.5, "abc"), id="payload-str"),
        pytest.param((None, None, None, None), id="all-none"),
    ],
)
def test_ill_typed_fields_are_refused_at_both_doors(fields):
    """Well-framed, canonical, wrong types: the generic decoder built these."""
    frame = b"\x0a\x0a" + bytes([len(fields)]) + b"".join(codec_oracle.encode(f) for f in fields)
    with pytest.raises(CodecError):
        decode(frame)
    with pytest.raises(CodecError):
        decode(b"\x08\x02" + encode("client-tx") + frame)  # as a client frame carries it
    with pytest.raises(TypeError):
        Transaction(*fields)
    with pytest.raises(TypeError):
        encode_fields(Transaction, *fields)


def test_constructor_takes_exact_types_only():
    class MyInt(int):
        pass

    for fields in ((MyInt(7), 3, 1.5, b"abc"), (7, 3, 1.5, bytearray(b"abc")), (7, 3, 1.5, memoryview(b"abc"))):
        with pytest.raises(TypeError):
            Transaction(*fields)


def _outcome(data: bytes):
    try:
        return decode(data)
    except CodecError:
        return None


@settings(max_examples=60, deadline=None)
@given(_ints, _ints, _floats, st.binary(max_size=24))
def test_every_mutation_is_refused_or_is_the_transaction_of_those_bytes(
    client_id, seq, submitted_at, payload
):
    """Canonical, byte by byte: there is no third outcome."""
    wire = Transaction(client_id, seq, submitted_at, payload).wire
    mutants = [wire[:cut] for cut in range(len(wire))]
    mutants += [wire + b"\x00", wire + wire]
    for at in range(len(wire)):
        for flip in (0x01, 0x80, 0xFF):
            mutants.append(wire[:at] + bytes([wire[at] ^ flip]) + wire[at + 1 :])
    for mutant in mutants:
        value = _outcome(mutant)
        if value is None:
            continue
        # A flipped tag or type id can spell another value; whatever it is,
        # these bytes are its one encoding.
        assert codec_oracle.encode(value) == mutant, mutant.hex()
        if type(value) is Transaction:
            assert value.wire == mutant
            assert codec_oracle.decode(mutant) == value


def test_exhaustive_single_byte_mutations_of_one_transaction():
    wire = Transaction(-3, 2**40 + 1, 12.5, b"opaque").wire
    accepted = 0
    for at in range(len(wire)):
        for byte in range(256):
            if byte == wire[at]:
                continue
            mutant = wire[:at] + bytes([byte]) + wire[at + 1 :]
            value = _outcome(mutant)
            if value is not None:
                assert codec_oracle.encode(value) == mutant
                if at >= 2:  # past the struct tag and the type id
                    assert type(value) is Transaction and value.wire == mutant
                    accepted += 1
    assert accepted > 0  # e.g. any other byte inside the float or the payload


def _shaped(data: bytes):
    try:
        return decode(data, CLIENT_TX)
    except CodecError:
        return None


def _has_client_tx_shape(value) -> bool:
    return (
        type(value) is tuple
        and len(value) == 2
        and encode(value[0]) == encode("client-tx")
        and type(value[1]) is Transaction
    )


@settings(max_examples=80, deadline=None)
@given(
    _ints,
    _ints,
    _floats,
    st.one_of(st.binary(max_size=24), st.sampled_from([b"\x07" * 200, b"\x01" * 1024])),
    st.binary(min_size=1, max_size=8),
)
def test_a_client_frame_read_by_its_shape_is_the_generic_read_or_refused(
    client_id, seq, submitted_at, payload, tail
):
    """Differential, over valid client frames with bytes flipped, cut short
    or extended: ``decode(f, CLIENT_TX)`` is ``decode(f)`` when that is a
    ``("client-tx", Transaction)``, and a ``CodecError`` otherwise."""
    frame = encode(("client-tx", Transaction(client_id, seq, submitted_at, payload)))
    mutants = [frame, frame + tail, frame + frame, tail + frame]
    mutants += [frame[:cut] for cut in range(len(frame))]
    for at in range(len(frame)):
        for flip in (0x01, 0x80, 0xFF):
            mutants.append(frame[:at] + bytes([frame[at] ^ flip]) + frame[at + 1 :])
    shaped = 0
    for mutant in mutants:
        expected, got = _outcome(mutant), _shaped(mutant)
        if _has_client_tx_shape(expected):
            shaped += 1
            assert type(got) is tuple and got == expected, mutant.hex()
            assert type(got[1]) is Transaction and got[1].wire == expected[1].wire
            assert (got[1].client_id, got[1].seq) == (expected[1].client_id, expected[1].seq)
        else:
            assert got is None, mutant.hex()
    assert shaped >= 1  # the frame itself


def _pad_varint(wire: bytes, at: int, width: int) -> bytes:
    """``wire`` with the ``width``-byte varint at ``at`` one byte longer:
    the same value, not minimal."""
    varint = wire[at : at + width]
    return wire[:at] + varint[:-1] + bytes([varint[-1] | 0x80, 0]) + wire[at + width :]


@pytest.mark.parametrize(
    "seq, payload, field, width",
    [
        pytest.param(64, b"\x02" * 1024, b"\x03\x80\x01", 2, id="two-byte-seq"),
        pytest.param(64, b"\x02" * 1024, b"\x05\x80\x08", 2, id="two-byte-length"),
        pytest.param(5, b"\x02" * 24, b"\x03\x0a", 1, id="one-byte-seq"),
        pytest.param(5, b"\x02" * 24, b"\x05\x18", 1, id="one-byte-length"),
    ],
)
def test_varints_read_inline_are_still_minimal(seq, payload, field, width):
    """A 1 KiB payload's length and a ``seq`` from 64 to 8191 take two varint
    bytes, read inline; one byte longer, the same value is refused."""
    tx = Transaction(1, seq, 0.5, payload)
    prefix = b"\x08\x02" + encode("client-tx")
    assert decode(tx.wire) == tx and decode(prefix + tx.wire, CLIENT_TX)[1] == tx
    padded = _pad_varint(tx.wire, tx.wire.index(field, 3) + 1, width)
    for frame, shape in ((padded, None), (prefix + padded, CLIENT_TX)):
        with pytest.raises(CodecError):
            decode(frame, shape)


def test_field_of_reads_any_registered_struct():
    tx = Transaction(5, 6, 7.5, b"eight")
    assert [field_of(tx.wire, i) for i in range(4)] == [5, 6, 7.5, b"eight"]
    from repro.types.block import BlockHeader

    header = BlockHeader(1, 2, b"\x01" * 32, b"\x02" * 32, 100, 3, 0)
    assert [field_of(encode(header), i) for i in range(7)] == list(dataclasses.astuple(header))
