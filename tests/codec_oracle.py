"""Reference codec.  The decoder is the recursive ``_Reader``/``_decode_from``
pair that ``repro.codec.core`` shipped before the position-passing decoder,
kept verbatim as a test oracle; the encoder is its plain recursive twin,
which builds every struct field by field (it knows no self-encoded class).

It is *lenient* where the shipped decoder is canonical (it accepts
non-minimal varints and unordered or duplicate dict keys) and it leaks
untyped exceptions on some hostile input (``UnicodeDecodeError``,
``TypeError``, ``RecursionError``).  It does not type fields either:
:func:`well_typed` is its own, separate reading of the annotations, which
the shipped decoder enforces while it decodes.  ``tests/test_codec_oracle.py``
pins the relation between the two: whenever the shipped decoder accepts a
frame, this one returns the same value, and that value is well typed.
"""

from __future__ import annotations

import struct
import typing
from typing import Any

from repro.codec.core import (
    _TAG_BYTES,
    _TAG_DICT,
    _TAG_FALSE,
    _TAG_FLOAT,
    _TAG_INT,
    _TAG_LIST,
    _TAG_NONE,
    _TAG_STR,
    _TAG_STRUCT,
    _TAG_TRUE,
    _TAG_TUPLE,
    _field_names,
    _registry_by_id,
    _registry_by_type,
)
from repro.errors import CodecError


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise CodecError("truncated message")
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def byte(self) -> int:
        if self.pos >= len(self.data):
            raise CodecError("truncated message")
        value = self.data[self.pos]
        self.pos += 1
        return value

    def varint(self) -> int:
        shift = 0
        value = 0
        while True:
            byte = self.byte()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 640:
                raise CodecError("varint too long")


def _decode_from(reader: _Reader) -> Any:
    tag = reader.byte()
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_INT:
        return _unzigzag(reader.varint())
    if tag == _TAG_FLOAT:
        return struct.unpack(">d", reader.take(8))[0]
    if tag == _TAG_BYTES:
        return reader.take(reader.varint())
    if tag == _TAG_STR:
        return reader.take(reader.varint()).decode("utf-8")
    if tag in (_TAG_LIST, _TAG_TUPLE):
        count = reader.varint()
        items = [_decode_from(reader) for _ in range(count)]
        return items if tag == _TAG_LIST else tuple(items)
    if tag == _TAG_DICT:
        count = reader.varint()
        result = {}
        for _ in range(count):
            key = _decode_from(reader)
            result[key] = _decode_from(reader)
        return result
    if tag == _TAG_STRUCT:
        type_id = reader.varint()
        cls = _registry_by_id.get(type_id)
        if cls is None:
            raise CodecError(f"unknown wire type id {type_id}")
        count = reader.varint()
        names = _field_names[cls]
        if count != len(names):
            raise CodecError(
                f"{cls.__name__}: expected {len(names)} fields, wire has {count}"
            )
        values = [_decode_from(reader) for _ in range(count)]
        try:
            return cls(*values)
        except (TypeError, ValueError) as exc:
            raise CodecError(f"cannot reconstruct {cls.__name__}: {exc}") from exc
    raise CodecError(f"unknown tag byte {tag:#04x}")


def decode(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode`; rejects trailing garbage."""
    reader = _Reader(data)
    value = _decode_from(reader)
    if reader.pos != len(data):
        raise CodecError(f"{len(data) - reader.pos} trailing bytes after value")
    return value


def _varint(value: int) -> bytes:
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def encode(value: Any) -> bytes:
    """The encoding, rebuilt from ``value``'s fields all the way down."""
    if value is None:
        return bytes([_TAG_NONE])
    if value is True or value is False:
        return bytes([_TAG_TRUE if value else _TAG_FALSE])
    if type(value) is int:
        return bytes([_TAG_INT]) + _varint(value * 2 if value >= 0 else -value * 2 - 1)
    if type(value) is float:
        return bytes([_TAG_FLOAT]) + struct.pack(">d", value)
    if type(value) is bytes:
        return bytes([_TAG_BYTES]) + _varint(len(value)) + value
    if type(value) is str:
        data = value.encode("utf-8")
        return bytes([_TAG_STR]) + _varint(len(data)) + data
    if type(value) in (list, tuple):
        tag = _TAG_LIST if type(value) is list else _TAG_TUPLE
        return bytes([tag]) + _varint(len(value)) + b"".join(encode(item) for item in value)
    if type(value) is dict:
        body = b"".join(encode(key) + encode(value[key]) for key in sorted(value))
        return bytes([_TAG_DICT]) + _varint(len(value)) + body
    names = _field_names[type(value)]
    head = bytes([_TAG_STRUCT]) + _varint(_registry_by_type[type(value)]) + _varint(len(names))
    return head + b"".join(encode(getattr(value, name)) for name in names)


# -- the annotations, read independently of the shipped decoder ---------------


def matches(value: Any, hint: Any) -> bool:
    if hint is type(None):
        return value is None
    if hint in (bool, int, float, bytes, str):
        return type(value) is hint  # so True is not an int
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return any(matches(value, arg) for arg in args)
    if origin is tuple:
        if type(value) is not tuple:
            return False
        if len(args) == 2 and args[1] is Ellipsis:
            return all(matches(item, args[0]) for item in value)
        return len(value) == len(args) and all(map(matches, value, args))
    if isinstance(hint, type):
        return isinstance(value, hint) and type(value) in _registry_by_type and well_typed(value)
    raise TypeError(f"no reading for the annotation {hint!r}")


def well_typed(value: Any) -> bool:
    """True iff every field of every registered struct in ``value`` holds a
    value of its annotation: exact scalar types, a tuple (never a list)
    where a tuple is declared, any registered subclass of a declared class."""
    cls = type(value)
    if cls in (list, tuple):
        return all(map(well_typed, value))
    if cls is dict:
        return all(well_typed(key) and well_typed(item) for key, item in value.items())
    if cls not in _registry_by_type:
        return True
    hints = typing.get_type_hints(cls)
    return all(matches(getattr(value, name), hints[name]) for name in _field_names[cls])


def minimal(hint: Any) -> Any:
    """The smallest well-typed value of ``hint``: zeros, empties and None,
    and the registered class with the lowest type id for a class."""
    zero = {type(None): None, bool: False, int: 0, float: 0.0, bytes: b"", str: ""}
    if hint in zero:
        return zero[hint]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return None if type(None) in args else minimal(args[0])
    if origin is tuple:
        return () if args[-1:] == (Ellipsis,) else tuple(minimal(arg) for arg in args)
    cls = next(c for _, c in sorted(_registry_by_id.items()) if issubclass(c, hint))
    hints = typing.get_type_hints(cls)
    return cls(*(minimal(hints[name]) for name in _field_names[cls]))
