"""Wire codec: roundtrips, determinism, error handling, properties."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import (
    decode,
    encode,
    encoded_size,
    register,
    registered_type_id,
    registered_types,
)
from repro.errors import CodecError
from repro.types.block import BlockHeader, genesis_block
from repro.types.certificates import Certificate, Vote
from repro.types.messages import ProposalHeaderMsg, VoteMsg
from repro.types.transaction import Transaction
from tests import codec_oracle
from tests.codec_oracle import _varint


class TestScalars:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, 1, -1, 127, 128, -12345678901234567890, 2**200],
    )
    def test_roundtrip(self, value):
        assert decode(encode(value)) == value

    def test_floats(self):
        for value in (0.0, 1.5, -2.25, 1e300, -1e-300):
            assert decode(encode(value)) == value

    def test_float_nan(self):
        decoded = decode(encode(float("nan")))
        assert decoded != decoded  # NaN roundtrips as NaN

    def test_int_not_confused_with_bool(self):
        assert decode(encode(1)) == 1
        assert decode(encode(1)) is not True
        assert decode(encode(True)) is True


class TestContainers:
    def test_bytes_and_str(self):
        assert decode(encode(b"")) == b""
        assert decode(encode(b"\x00\xffdata")) == b"\x00\xffdata"
        assert decode(encode("héllo")) == "héllo"

    def test_list_tuple_distinct(self):
        assert decode(encode([1, 2])) == [1, 2]
        assert decode(encode((1, 2))) == (1, 2)
        assert isinstance(decode(encode((1, 2))), tuple)
        assert isinstance(decode(encode([1, 2])), list)

    def test_nested(self):
        value = {"a": [1, (2, b"x")], "b": {"c": None}}
        assert decode(encode(value)) == value

    def test_dict_encoding_deterministic(self):
        a = encode({"x": 1, "y": 2})
        b = encode({"y": 2, "x": 1})
        assert a == b

    def test_unsortable_dict_keys_rejected(self):
        with pytest.raises(CodecError):
            encode({1: "a", "b": 2})


class TestStructs:
    def test_transaction_roundtrip(self):
        tx = Transaction(client_id=1, seq=2, submitted_at=3.5, payload=b"abc")
        assert decode(encode(tx)) == tx

    def test_header_roundtrip(self):
        header = genesis_block().header
        decoded = decode(encode(header))
        assert decoded == header
        assert decoded.block_hash == header.block_hash

    def test_nested_message_roundtrip(self, signers3):
        vote = Vote.create(signers3[0], "alterbft", 1, 1, b"\x01" * 32)
        msg = VoteMsg(vote=vote)
        assert decode(encode(msg)) == msg

    def test_registered_type_id(self):
        assert registered_type_id(Transaction) == 10
        assert registered_type_id(BlockHeader) == 11

    def test_unregistered_type_rejected(self):
        class NotRegistered:
            pass

        with pytest.raises(CodecError):
            encode(NotRegistered())
        with pytest.raises(CodecError):
            registered_type_id(NotRegistered)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(CodecError):

            @register(10)  # already taken by Transaction
            @dataclasses.dataclass(frozen=True)
            class Clash:
                x: int

    def test_non_dataclass_registration_rejected(self):
        with pytest.raises(CodecError):
            register(99_999)(object)


#: Frames that escaped the old decoder as something other than CodecError —
#: through FileWal.replay, the dissemination reconstruct path and the
#: transport's reader task, which catch CodecError only.
UNTYPED_BEFORE = [
    pytest.param(b"\x06\x01\xff", id="invalid-utf8"),  # was UnicodeDecodeError
    pytest.param(b"\x09\x01\x07\x00\x00", id="list-as-dict-key"),  # was TypeError
    pytest.param(b"\x07\x01" * 50_000 + b"\x00", id="deep-nesting"),  # was RecursionError
]


class TestErrors:
    def test_truncated(self):
        data = encode((1, 2, 3))
        with pytest.raises(CodecError):
            decode(data[:-1])

    def test_trailing_garbage(self):
        with pytest.raises(CodecError):
            decode(encode(1) + b"\x00")

    def test_unknown_tag(self):
        with pytest.raises(CodecError):
            decode(b"\x7f")

    def test_unknown_struct_id(self):
        data = bytes([0x0A]) + bytes([0xFF, 0x7F]) + bytes([0x00])
        with pytest.raises(CodecError):
            decode(data)

    def test_empty_input(self):
        with pytest.raises(CodecError):
            decode(b"")

    @pytest.mark.parametrize(
        "frame",
        UNTYPED_BEFORE
        + [
            pytest.param(b"\x09\x02\x03\x02\x00\x06\x01a\x00", id="unorderable-dict-keys"),
            pytest.param(b"\x03" + b"\x80" * 100 + b"\x01", id="over-long-varint"),
            pytest.param(b"\x04\x00\x00\x00", id="truncated-float"),
            pytest.param(b"\x05\x85\x80\x80\x80\x80\x80\x80\x80\x80\x01", id="huge-length"),
            pytest.param(b"\x08\xff\xff\xff\xff\x0f\x00", id="huge-count"),
        ],
    )
    def test_hostile_bytes_raise_codec_error(self, frame):
        with pytest.raises(CodecError):
            decode(frame)

    def test_field_count_mismatch(self):
        with pytest.raises(CodecError, match="expected 4 fields, wire has 3"):
            decode(b"\x0a\x0a\x03\x00\x00\x00")


class TestCanonicalForm:
    """decode accepts exactly what encode emits: encode(decode(b)) == b."""

    def test_non_minimal_varint_rejected(self):
        assert decode(b"\x03\x02") == 1
        with pytest.raises(CodecError, match="non-minimal"):
            decode(b"\x03\x82\x00")  # the same 1, spelt in two bytes
        with pytest.raises(CodecError, match="non-minimal"):
            decode(b"\x05\x81\x00x")  # a bytes length

    def test_multi_byte_varint_roundtrip(self):
        for value in (64, 8191, 8192, 2**62, -(2**62), 2**300):
            assert decode(encode(value)) == value

    def test_dict_keys_must_ascend(self):
        ascending = encode({"a": 1, "b": 2})
        assert decode(ascending) == {"a": 1, "b": 2}
        a, b = encode("a") + encode(1), encode("b") + encode(2)
        with pytest.raises(CodecError, match="ascending"):
            decode(b"\x09\x02" + b + a)
        with pytest.raises(CodecError, match="ascending"):
            decode(b"\x09\x02" + a + a)  # duplicate key

    def test_bytes_like_input_decodes_to_bytes(self):
        wire = encode((b"abc", "x"))
        for data in (bytearray(wire), memoryview(wire)):
            value = decode(data)
            assert value == (b"abc", "x") and type(value[0]) is bytes

    def test_nesting_up_to_the_bound(self):
        from repro.codec.core import MAX_NESTING

        value = None
        for _ in range(MAX_NESTING):
            value = (value,)
        assert decode(encode(value)) == value
        with pytest.raises(CodecError, match="nested deeper"):
            decode(encode((value,)))


def test_encoded_size_matches_encode():
    value = {"k": [1, 2.5, b"xyz"]}
    assert encoded_size(value) == len(encode(value))


# -- property-based -----------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.binary(max_size=64),
    st.text(max_size=32),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_values)
def test_roundtrip_property(value):
    assert decode(encode(value)) == value


@settings(max_examples=100, deadline=None)
@given(_values)
def test_encoding_deterministic_property(value):
    assert encode(value) == encode(value)


# -- registry-enumerated round-trips ------------------------------------------
#
# Every registered wire type gets a property-based round-trip test,
# derived automatically from its dataclass annotations.  Adding a new
# message type to the registry adds its test; there is no list to keep
# in sync.

import typing  # noqa: E402


def _field_strategy(hint) -> st.SearchStrategy:
    origin = typing.get_origin(hint)
    if origin is typing.Union:  # Optional[X] and friends
        return st.one_of(*[_field_strategy(arg) for arg in typing.get_args(hint)])
    if origin is tuple:
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:  # variadic Tuple[X, ...]
            return st.lists(_field_strategy(args[0]), max_size=3).map(tuple)
        return st.tuples(*[_field_strategy(arg) for arg in args])
    if hint is type(None):
        return st.none()
    if hint is bool:
        return st.booleans()
    if hint is int:
        return st.integers(min_value=-(2**40), max_value=2**40)
    if hint is float:
        return st.floats(allow_nan=False, allow_infinity=False)
    if hint is bytes:  # includes Digest
        return st.binary(max_size=40)
    if hint is str:
        return st.text(max_size=16)
    if hint is Certificate:  # any registered certificate
        return st.one_of(
            *[
                _struct_strategy(cls)
                for _, cls in sorted(registered_types().items())
                if issubclass(cls, Certificate)
            ]
        )
    if dataclasses.is_dataclass(hint):
        return _struct_strategy(hint)
    raise AssertionError(f"no strategy for field type {hint!r}")


def _struct_strategy(cls) -> st.SearchStrategy:
    hints = typing.get_type_hints(cls)  # includes inherited ClassVars: go by field
    return st.builds(
        cls, **{f.name: _field_strategy(hints[f.name]) for f in dataclasses.fields(cls)}
    )


def test_registry_enumeration_is_nonempty_and_stable():
    registry = registered_types()
    assert len(registry) >= 30
    assert all(registry[tid] is cls for tid, cls in registry.items())
    assert all(registered_type_id(cls) == tid for tid, cls in registry.items())


@pytest.mark.parametrize(
    "cls",
    [cls for _, cls in sorted(registered_types().items())],
    ids=lambda cls: cls.__name__,
)
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_registered_type_roundtrips(cls, data):
    value = data.draw(_struct_strategy(cls))
    wire = encode(value)
    decoded = decode(wire)
    assert decoded == value
    assert type(decoded) is cls
    # Deterministic: re-encoding the decoded value is byte-identical.
    assert encode(decoded) == wire
    assert encoded_size(value) == len(wire)


# -- every field is typed at decode --------------------------------------------
#
# One value of each wire type, and two structs.  A field's cases are the
# ones its annotation does not admit (by the oracle's reading of it).
_OTHER_TYPES = {
    "str": "x",
    "int": 7,
    "float": 1.5,
    "bytes": b"\x01",
    "bool": True,
    "none": None,
    "list": [7],
    "tuple": (7,),
    "header": codec_oracle.minimal(BlockHeader),
    "certificate": codec_oracle.minimal(Certificate),
}


def _every_field():
    for _, cls in sorted(registered_types().items()):
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            yield pytest.param(cls, field.name, hints, id=f"{cls.__name__}.{field.name}")


def _frame(cls, values) -> bytes:
    """The canonical frame of a ``cls`` with these field values, typed or
    not (the reference encoder builds it field by field)."""
    head = b"\x0a" + _varint(registered_type_id(cls)) + _varint(len(values))
    return head + b"".join(codec_oracle.encode(value) for value in values)


@pytest.mark.parametrize("cls, name, hints", _every_field())
def test_a_field_of_another_type_is_a_codec_error(cls, name, hints):
    names = [f.name for f in dataclasses.fields(cls)]
    values = [codec_oracle.minimal(hints[n]) for n in names]
    assert type(decode(_frame(cls, values))) is cls
    refused = 0
    for label, other in _OTHER_TYPES.items():
        if codec_oracle.matches(other, hints[name]):
            continue
        values[names.index(name)] = other
        with pytest.raises(CodecError):
            decode(_frame(cls, values))
        refused += 1
    assert refused >= 5


# -- honest traffic is well typed ----------------------------------------------

#: Short seeded runs that between them send every kind of message an honest
#: replica produces: the four protocols, then AlterBFT with the
#: certificate-bearing layers on, with dissemination and pipelining, and
#: with a replica that crashes and catches up from checkpoints.
HONEST_RUNS = {
    protocol: (protocol, {}, ((1, "crash@0.5"),))  # the epoch-1 leader: epoch changes too
    for protocol in ("alterbft", "sync-hotstuff", "hotstuff", "pbft")
}
HONEST_RUNS.update({
    "flags-on": ("alterbft", dict(crypto_batch=True, guard_enabled=True, checkpoint_interval=4), ()),
    "dissem-pipelined": ("alterbft", dict(dissemination=True, pipeline_depth=2), ()),
    "crash-recover": (
        "alterbft",
        dict(checkpoint_interval=4),
        ((2, "crash-recover@0.3:0.9"),),
    ),
})


@pytest.mark.parametrize("run", list(HONEST_RUNS))
def test_honest_traffic_passes_the_typed_decoder(run):
    """Every message a run offers the network comes back from the wire
    equal and of the same class: no honest producer puts an ``int`` in a
    ``float`` field or a list where a tuple belongs."""
    from repro.bench.common import make_config
    from repro.runner.cluster import build_cluster

    protocol, flags, faults = HONEST_RUNS[run]
    cluster = build_cluster(
        make_config(protocol, rate=300.0, duration=2.0, seed=3, faults=faults, **flags)
    )
    seen = {}

    def tap(src, dst, msg, size):
        if id(msg) not in seen:
            seen[id(msg)] = msg
            decoded = decode(encode(msg))
            assert type(decoded) is type(msg) and decoded == msg, type(msg).__name__
        return True  # deliver everything

    cluster.network.add_filter(tap)
    cluster.start()
    cluster.run()
    kinds = {type(msg).__name__ for msg in seen.values()}
    assert len(kinds) >= 3, kinds
