"""The shipped decoder against the reference decoder it replaced.

``tests/codec_oracle.py`` holds the old recursive decoder verbatim.  For
every registered wire type, and for byte-level mutations of valid frames,
the shipped decoder must do one of two things:

* raise ``CodecError`` — never anything else — or
* return the oracle's value, well typed by the oracle's own reading of
  the annotations, with ``encode(value) == frame`` (canonical form) and
  ``encoded_size(value) == len(frame)`` whether the size memo is present
  or not.

The converse is pinned too: a frame the oracle accepts, that is in
canonical form (it re-encodes to itself) and whose value is well typed
must not be refused — nesting beyond ``MAX_NESTING`` excepted, which the
mutations here cannot reach.
"""

from __future__ import annotations

import dataclasses
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import (
    decode,
    encode,
    encoded_size,
    registered_type_id,
    registered_types,
)
from repro.codec.core import MAX_NESTING, SIZE_CACHE_ATTR
from repro.errors import CodecError
from tests import codec_oracle
from tests.codec_oracle import _varint
from tests.test_codec import _struct_strategy, _values

_REGISTERED = [cls for _, cls in sorted(registered_types().items())]


def _same(a, b) -> bool:
    """Equality that also holds for values carrying a NaN."""
    return type(a) is type(b) and (a == b or encode(a) == encode(b))


def _oracle(frame: bytes):
    """(accepted, value) from the reference decoder; any exception = refused."""
    try:
        return True, codec_oracle.decode(frame)
    except (CodecError, UnicodeDecodeError, TypeError, RecursionError):
        return False, None


def check_against_oracle(frame: bytes) -> bool:
    """Assert the contract above for one frame; True if it was accepted."""
    try:
        value = decode(frame)
    except CodecError:
        accepted, reference = _oracle(frame)
        if accepted:
            # Refusing is only right for a frame encode() could not have
            # produced — one that re-encodes differently, or not at all
            # (unorderable dict keys) — or one with an ill-typed field.
            try:
                canonical = encode(reference) == frame
            except CodecError:
                canonical = False
            well_typed = codec_oracle.well_typed(reference)
            assert not (canonical and well_typed), f"canonical frame refused: {frame.hex()}"
        return False
    accepted, reference = _oracle(frame)
    assert accepted, f"oracle refuses what the decoder accepted: {frame.hex()}"
    assert _same(value, reference)
    assert codec_oracle.well_typed(value), f"ill-typed value accepted: {frame.hex()}"
    assert encode(value) == frame
    assert codec_oracle.encode(value) == frame  # rebuilt field by field: same bytes
    assert SIZE_CACHE_ATTR not in getattr(value, "__dict__", {})
    assert encoded_size(value) == len(frame)  # memo absent
    assert encoded_size(value) == len(frame)  # memo present (on structs)
    assert encode(value) == frame
    return True


def _mutations(data, frame: bytes, other: bytes):
    """Draw one mutant of each kind from ``frame`` (``other`` feeds splices)."""
    at = data.draw(st.integers(0, len(frame) - 1), label="flip at")
    yield "flip", frame[:at] + bytes([frame[at] ^ data.draw(st.integers(1, 255))]) + frame[at + 1 :]
    yield "truncate", frame[: data.draw(st.integers(0, len(frame) - 1), label="cut")]
    lo = data.draw(st.integers(0, len(frame)), label="splice lo")
    hi = data.draw(st.integers(lo, len(frame)), label="splice hi")
    src = data.draw(st.integers(0, len(other)), label="splice src")
    width = data.draw(st.integers(0, 8), label="splice width")
    yield "splice", frame[:lo] + other[src : src + width] + frame[hi:]
    # A one-byte varint b re-spelt as (b | 0x80, 0x00): same number, one
    # byte longer.  Wherever ``at`` is a tag, count, id, length or small
    # int this is the non-minimal form the old decoder let through.
    at = data.draw(st.integers(0, len(frame) - 1), label="continuation at")
    yield "continuation", frame[:at] + bytes([frame[at] | 0x80, 0x00]) + frame[at + 1 :]
    yield "trailing", frame + bytes([data.draw(st.integers(0, 255))])


@pytest.mark.parametrize("cls", _REGISTERED, ids=lambda cls: cls.__name__)
@settings(max_examples=12, deadline=None)
@given(st.data())
def test_registered_type_and_mutants_against_oracle(cls, data):
    value = data.draw(_struct_strategy(cls))
    frame = encode(value)
    assert check_against_oracle(frame), "valid frame refused"
    other = encode(data.draw(_struct_strategy(cls)))
    for kind, mutant in _mutations(data, frame, other):
        if mutant != frame:
            check_against_oracle(mutant)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_plain_values_and_mutants_against_oracle(data):
    frame = encode(data.draw(_values))
    assert check_against_oracle(frame), "valid frame refused"
    other = encode(data.draw(_values))
    for kind, mutant in _mutations(data, frame, other):
        if mutant != frame:
            check_against_oracle(mutant)


@pytest.mark.parametrize("cls", _REGISTERED, ids=lambda cls: cls.__name__)
def test_non_minimal_struct_header_refused(cls):
    """Type id or field count re-spelt with a continuation byte."""

    def padded(varint: bytes) -> bytes:
        return varint[:-1] + bytes([varint[-1] | 0x80, 0x00])

    count = len(dataclasses.fields(cls))
    type_id, fields = _varint(registered_type_id(cls)), _varint(count)
    hints = typing.get_type_hints(cls)
    body = b"".join(
        codec_oracle.encode(codec_oracle.minimal(hints[f.name])) for f in dataclasses.fields(cls)
    )
    assert check_against_oracle(b"\x0a" + type_id + fields + body)
    for head in (padded(type_id) + fields, type_id + padded(fields)):
        frame = b"\x0a" + head + body
        assert type(codec_oracle.decode(frame)) is cls  # the old decoder took it
        assert not check_against_oracle(frame)


def _dict_frame(entries) -> bytes:
    """A dict frame with its entries in the given order, canonical or not."""
    body = b"".join(encode(key) + encode(value) for key, value in entries)
    return b"\x09" + _varint(len(entries)) + body


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.text(max_size=6), st.integers(-5, 5), min_size=2, max_size=5),
    st.randoms(use_true_random=False),
)
def test_reordered_and_duplicate_dict_entries(mapping, rng):
    ordered = sorted(mapping.items())
    assert _dict_frame(ordered) == encode(mapping)
    assert check_against_oracle(_dict_frame(ordered))
    shuffled = list(ordered)
    rng.shuffle(shuffled)
    if shuffled != ordered:
        frame = _dict_frame(shuffled)
        assert codec_oracle.decode(frame) == mapping  # the old decoder took it
        assert not check_against_oracle(frame)
    duplicated = ordered + [ordered[-1]]
    assert codec_oracle.decode(_dict_frame(duplicated)) == mapping
    assert not check_against_oracle(_dict_frame(duplicated))


def test_nesting_bound_is_exact():
    def nested(levels: int) -> bytes:
        return b"\x07\x01" * levels + b"\x00"

    assert check_against_oracle(nested(MAX_NESTING))
    # The one canonical form that is refused: encode() has no depth limit.
    assert codec_oracle.decode(nested(MAX_NESTING + 1))
    with pytest.raises(CodecError):
        decode(nested(MAX_NESTING + 1))
    # Far beyond the interpreter's recursion limit, in a frame well under
    # the transport's size cap: the old decoder died of RecursionError.
    with pytest.raises(RecursionError):
        codec_oracle.decode(nested(50_000))
    with pytest.raises(CodecError):
        decode(nested(50_000))
