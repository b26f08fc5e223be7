"""Binary wire codec.

A compact, self-describing, deterministic encoding for the value types the
protocols exchange: ``None``, bools, ints, floats, bytes, strings, lists,
tuples, dicts, and *registered dataclasses* (the message and certificate
types).  The same encoding serves two purposes:

* the real asyncio transport frames and ships these bytes, and
* the simulated network measures ``len(encode(msg))`` to classify a
  message as small or large under the hybrid synchronous model — so the
  sizes the simulator reasons about are genuine wire sizes, not guesses.

Dataclasses participate by registration (:func:`register`): each gets a
stable numeric type id, and its fields are encoded positionally in
declaration order.  Decoding reconstructs the dataclass and holds every
field to its annotation: what a field of a peer's message may hold is
decided here and nowhere else, and a field of another type is a
``CodecError`` like any other malformed frame.  Encoding is deterministic
(dict keys are sorted), so digests of encoded values are stable across
runs and platforms.

A value's *size* is the length of its encoding, and the simulator needs
sizes far more often than bytes.  Two per-instance memos on frozen
registered dataclasses keep that cheap:

* :func:`encoded_size` runs the encoder's own walk and sums the chunk
  lengths — no byte string is joined, so a payload is never copied to be
  measured — and keeps the result under ``_wire_size``, so a header that
  is relayed hundreds of times is sized exactly once.
* :func:`encode_cached` keeps full encodings under ``_wire_bytes``, so a
  broadcast over the real transport encodes once per message object, not
  once per link.

Both memos are safe because registered message types are immutable and
the encoding is deterministic; mutable (non-frozen) dataclasses are never
cached.

A registered class can go one step further and be *self-encoded*: its
instances hold their encoding (``wire``) and are decoded by checking the
bytes in place and slicing them out, so they are never rebuilt from fields
or re-encoded.  :func:`register` documents the contract; ``Transaction``,
the one type that crosses every layer thousands of times per block, is
its user.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import struct
import typing
from typing import Any, Callable, Dict, FrozenSet, List, Tuple, Type, TypeVar

from ..errors import CodecError

_T = TypeVar("_T")

_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_BYTES = 0x05
_TAG_STR = 0x06
_TAG_LIST = 0x07
_TAG_TUPLE = 0x08
_TAG_DICT = 0x09
_TAG_STRUCT = 0x0A

_registry_by_id: Dict[int, Type] = {}
_registry_by_type: Dict[Type, int] = {}
_field_names: Dict[Type, Tuple[str, ...]] = {}
#: Registered classes whose instances may carry the ``_wire_size`` /
#: ``_wire_bytes`` memo: frozen (immutable fields) and dict-backed.
_cacheable: Dict[Type, bool] = {}

#: Instance attribute names of the two memos.
SIZE_CACHE_ATTR = "_wire_size"
BYTES_CACHE_ATTR = "_wire_bytes"

#: Self-encoded classes (see :func:`register`): class → (the constant
#: tag/type-id/field-count bytes every encoding starts with, field types).
_self_encoded: Dict[Type, Tuple[bytes, Tuple[type, ...]]] = {}

_size_cache_hits = 0
_size_cache_misses = 0


def size_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of the per-instance struct size memo."""
    return {"hits": _size_cache_hits, "misses": _size_cache_misses}


def reset_size_cache_stats() -> None:
    global _size_cache_hits, _size_cache_misses
    _size_cache_hits = 0
    _size_cache_misses = 0


def register(type_id: int) -> Callable[[Type[_T]], Type[_T]]:
    """Class decorator registering a dataclass for wire encoding.

    Type ids must be unique library-wide; the allocation map is the
    docstring of :mod:`repro.types.messages`.

    **Field types.**  Every field's annotation is a wire type, and the
    decoder refuses a frame whose field holds a value of another one:
    ``int``, ``float``, ``bytes`` (``Digest``), ``str``, ``bool``, a class
    (a registered class, or a base such as ``Certificate`` that admits
    every registered subclass), ``Optional[X]`` (``None`` or an X),
    ``Tuple[X, ...]`` and fixed ``Tuple[A, B]``.  ``bool`` is not an
    ``int`` and a list is not a tuple.  The annotations are resolved when the class's decoder is
    first built, so they may name classes registered later.

    **Self-encoded classes.**  A class that defines a ``from_wire``
    classmethod keeps its canonical encoding instead of having it rebuilt
    from its fields.  Its fields must all be annotated ``int``, ``float`` or
    ``bytes``, and the contract has three parts:

    * every instance has ``wire``, exactly the bytes :func:`encode` would
      emit for its fields — built by :func:`encode_fields` (which checks the
      field types) or handed to ``from_wire``, never assembled elsewhere;
    * the codec encodes an instance by appending ``instance.wire`` and sizes
      it as ``len(instance.wire)``;
    * the codec decodes one by checking the bytes where they lie — struct
      tag, type id, field count, then each field's tag, as for any
      registered class, with every varint minimal — slicing
      them out once and calling ``cls.from_wire(wire, *ints)``.  ``ints`` are
      the values of the ``int`` fields in declaration order (checking walks
      them anyway); ``float`` and ``bytes`` fields are not materialised, the
      class reads them out of ``wire`` on demand with :func:`field_of`.
      ``from_wire`` must not raise and need not check anything: ``wire`` is
      valid, and nothing re-validates it afterwards.

    Decoding being canonical, ``wire`` determines the fields and the fields
    determine ``wire``, so such a class can compare and hash by ``wire``.
    """

    def decorate(cls: Type[_T]) -> Type[_T]:
        if not dataclasses.is_dataclass(cls):
            raise CodecError(f"{cls.__name__} must be a dataclass to register")
        if type_id in _registry_by_id:
            raise CodecError(
                f"type id {type_id} already used by {_registry_by_id[type_id].__name__}"
            )
        if cls in _registry_by_type:
            raise CodecError(f"{cls.__name__} registered twice")
        _registry_by_id[type_id] = cls
        _registry_by_type[cls] = type_id
        _field_names[cls] = tuple(f.name for f in dataclasses.fields(cls))
        if hasattr(cls, "from_wire"):
            _install_self_encoded(cls, type_id)
            return cls
        _cacheable[cls] = bool(
            cls.__dataclass_params__.frozen and getattr(cls, "__slots__", None) is None
        )
        _install_struct_encoder(cls, type_id)
        return cls

    return decorate


def registered_type_id(cls: Type) -> int:
    """Return the wire type id of a registered dataclass."""
    try:
        return _registry_by_type[cls]
    except KeyError:
        raise CodecError(f"{cls.__name__} is not a registered wire type") from None


def registered_types() -> Dict[int, Type]:
    """Snapshot of the wire registry: type id → dataclass.

    Test harnesses enumerate this to guarantee every registered message
    type has wire coverage — a new message cannot ship without it.
    """
    return dict(_registry_by_id)


#: All 256 one-byte strings, precomputed so the encoder never constructs
#: single-byte ``bytes`` objects in the hot loop.
_BYTE = [bytes((i,)) for i in range(256)]

_B_NONE = _BYTE[_TAG_NONE]
_B_FALSE = _BYTE[_TAG_FALSE]
_B_TRUE = _BYTE[_TAG_TRUE]
_B_INT = _BYTE[_TAG_INT]
_B_FLOAT = _BYTE[_TAG_FLOAT]
_B_BYTES = _BYTE[_TAG_BYTES]
_B_STR = _BYTE[_TAG_STR]
_B_LIST = _BYTE[_TAG_LIST]
_B_TUPLE = _BYTE[_TAG_TUPLE]
_B_DICT = _BYTE[_TAG_DICT]
_B_STRUCT = _BYTE[_TAG_STRUCT]


def _fields_getter(names: Tuple[str, ...]) -> Callable[[Any], Tuple[Any, ...]]:
    """Field-tuple extractor for a registered class, one C call per value.

    ``attrgetter`` with multiple names returns a tuple; with one name it
    returns the bare value, so wrap that case (a zero-field dataclass
    gets a constant empty tuple).
    """
    if not names:
        return lambda value: ()
    if len(names) == 1:
        single = operator.attrgetter(names[0])
        return lambda value: (single(value),)
    return operator.attrgetter(*names)


def _write_varint(out: List[bytes], value: int) -> None:
    if value < 0x80:
        if value < 0:
            raise CodecError("varint must be non-negative")
        out.append(_BYTE[value])
        return
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(_BYTE[byte | 0x80])
        else:
            out.append(_BYTE[byte])
            return


def _enc_int(value: int, out: List[bytes]) -> None:
    out.append(_B_INT)
    _write_varint(out, value * 2 if value >= 0 else -value * 2 - 1)


def _enc_float(value: float, out: List[bytes]) -> None:
    out.append(_B_FLOAT)
    out.append(struct.pack(">d", value))


def _enc_bytes(value: bytes, out: List[bytes]) -> None:
    out.append(_B_BYTES)
    _write_varint(out, len(value))
    out.append(value)


def _enc_str(value: str, out: List[bytes]) -> None:
    data = value.encode("utf-8")
    out.append(_B_STR)
    _write_varint(out, len(data))
    out.append(data)


def _enc_list(value: list, out: List[bytes]) -> None:
    out.append(_B_LIST)
    _write_varint(out, len(value))
    for item in value:
        _encode_into(item, out)


def _enc_tuple(value: tuple, out: List[bytes]) -> None:
    out.append(_B_TUPLE)
    _write_varint(out, len(value))
    for item in value:
        _encode_into(item, out)


def _enc_dict(value: dict, out: List[bytes]) -> None:
    out.append(_B_DICT)
    _write_varint(out, len(value))
    try:
        keys = sorted(value)
    except TypeError as exc:
        raise CodecError("dict keys must be sortable for deterministic encoding") from exc
    for key in keys:
        _encode_into(key, out)
        _encode_into(value[key], out)


#: Exact-type dispatch for the encoder; registered dataclasses add a
#: specialized entry (see :func:`_install_struct_encoder`).  Subclasses
#: fall back to the isinstance mirror in :func:`_encode_general`.
_ENC_BY_TYPE: Dict[Type, Callable[[Any, List[bytes]], None]] = {
    type(None): lambda value, out: out.append(_B_NONE),
    bool: lambda value, out: out.append(_B_TRUE if value else _B_FALSE),
    int: _enc_int,
    float: _enc_float,
    bytes: _enc_bytes,
    str: _enc_str,
    list: _enc_list,
    tuple: _enc_tuple,
    dict: _enc_dict,
}


def _struct_prefix(type_id: int, count: int) -> bytes:
    """Tag byte, type id and field count: constant per class, pre-joined."""
    chunks: List[bytes] = [_B_STRUCT]
    _write_varint(chunks, type_id)
    _write_varint(chunks, count)
    return b"".join(chunks)


def _install_struct_encoder(cls: Type, type_id: int) -> None:
    """Specialize an encoder for one registered dataclass."""
    names = _field_names[cls]
    prefix = _struct_prefix(type_id, len(names))
    dispatch = _ENC_BY_TYPE
    get_fields = _fields_getter(names)

    def encode_struct(value: Any, out: List[bytes]) -> None:
        out.append(prefix)
        for field in get_fields(value):
            try:
                handler = dispatch[type(field)]
            except KeyError:
                _encode_general(field, out)
            else:
                handler(field, out)

    dispatch[cls] = encode_struct


def _install_self_encoded(cls: Type, type_id: int) -> None:
    """Encoder of a self-encoded class (see :func:`register`)."""
    hints = typing.get_type_hints(cls)
    kinds = tuple(hints[name] for name in _field_names[cls])
    if not all(kind in (int, float, bytes) for kind in kinds):
        raise CodecError(f"{cls.__name__}: a self-encoded field must be int, float or bytes")
    _self_encoded[cls] = (_struct_prefix(type_id, len(kinds)), kinds)
    _cacheable[cls] = False  # it is its own memo
    _ENC_BY_TYPE[cls] = lambda value, out: out.append(value.wire)


def encode_fields(cls: Type, *values: Any) -> bytes:
    """``wire`` of an instance of the self-encoded ``cls`` with these fields.

    The one place such an instance's bytes are assembled from values, hence
    where they are type-checked: exact ``int`` / ``float`` / ``bytes`` as
    the class annotates them (``bool`` is another wire type than ``int``),
    ``TypeError`` otherwise.
    """
    prefix, kinds = _self_encoded[cls]
    if tuple(map(type, values)) != kinds:
        expected = ", ".join(kind.__name__ for kind in kinds)
        got = ", ".join(type(value).__name__ for value in values)
        raise TypeError(f"{cls.__name__} fields must be ({expected}), not ({got})")
    out = [prefix]
    for value, kind in zip(values, kinds):
        _ENC_BY_TYPE[kind](value, out)  # exact scalar types: always present
    return b"".join(out)


def _encode_general(value: Any, out: List[bytes]) -> None:
    """isinstance-based fallback for subclasses of encodable types."""
    if value is None:
        out.append(_B_NONE)
    elif value is False:
        out.append(_B_FALSE)
    elif value is True:
        out.append(_B_TRUE)
    elif isinstance(value, int):
        _enc_int(value, out)
    elif isinstance(value, float):
        _enc_float(value, out)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        _enc_bytes(bytes(value), out)
    elif isinstance(value, str):
        _enc_str(value, out)
    elif isinstance(value, list):
        _enc_list(value, out)
    elif isinstance(value, tuple):
        _enc_tuple(value, out)
    elif isinstance(value, dict):
        _enc_dict(value, out)
    else:
        raise CodecError(f"cannot encode value of type {type(value).__name__}")


def _encode_into(value: Any, out: List[bytes]) -> None:
    handler = _ENC_BY_TYPE.get(type(value))
    if handler is not None:
        handler(value, out)
    else:
        _encode_general(value, out)


def encode(value: Any) -> bytes:
    """Encode any supported value to bytes."""
    out: List[bytes] = []
    _encode_into(value, out)
    return b"".join(out)


# -- decoding ------------------------------------------------------------------
#
# Position-passing: every decoder is ``(data, pos, room) -> (value, pos)``
# with ``pos`` just past the tag byte and ``room`` the nesting levels still
# allowed.  No reader object, no per-byte method calls; one-byte varints
# (every tag, count, type id and most ints) are read inline, and so are a
# struct field's two-byte ones.  Running off the end of ``data`` surfaces
# as ``IndexError``/``struct.error`` and is turned into a ``CodecError``
# once, in :func:`decode`; slices, which clamp instead of raising, check
# their own length.
#
# The decoder is *canonical*: it accepts exactly the bytes :func:`encode`
# emits, so ``encode(decode(b)) == b`` for every ``b`` it accepts.  Varints
# must be minimal, dict keys strictly ascending (the encoder sorts them),
# strings valid UTF-8.  That is what lets a self-encoded class (see
# :func:`register`) keep the bytes it was decoded from as its encoding.

#: Containers and structs may nest this deep; deeper input is refused with
#: a ``CodecError`` long before the interpreter's recursion limit.  The
#: deepest registered message nests about ten levels.
MAX_NESTING = 64

_NESTING_ERROR = f"value nested deeper than {MAX_NESTING} levels"

_unpack_double = struct.Struct(">d").unpack_from


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    """Multi-byte varint at ``pos``; the generated struct decoders inline the
    one- and two-byte cases, the other decoders the one-byte case."""
    value = data[pos] & 0x7F
    byte = data[pos + 1]
    if 0 < byte < 0x80:  # two bytes: any length or count up to 16383
        return value | (byte << 7), pos + 2
    shift = 7
    while True:
        pos += 1
        byte = data[pos]
        if byte < 0x80:
            if not byte:
                raise CodecError("non-minimal varint")
            return value | (byte << shift), pos + 1
        value |= (byte & 0x7F) << shift
        shift += 7
        if shift > 640:
            raise CodecError("varint too long")


def _dec_int(data: bytes, pos: int, room: int) -> Tuple[int, int]:
    value = data[pos]
    if value < 0x80:
        pos += 1
    else:
        value, pos = _read_varint(data, pos)
    return (value >> 1) ^ -(value & 1), pos


def _dec_float(data: bytes, pos: int, room: int) -> Tuple[float, int]:
    return _unpack_double(data, pos)[0], pos + 8


def _dec_bytes(data: bytes, pos: int, room: int) -> Tuple[bytes, int]:
    length = data[pos]
    if length < 0x80:
        pos += 1
    else:
        length, pos = _read_varint(data, pos)
    end = pos + length
    chunk = data[pos:end]
    if len(chunk) != length:
        raise CodecError("truncated message")
    return chunk, end


def _dec_str(data: bytes, pos: int, room: int) -> Tuple[str, int]:
    chunk, pos = _dec_bytes(data, pos, room)
    try:
        return chunk.decode("utf-8"), pos
    except UnicodeDecodeError as exc:
        raise CodecError(f"string is not valid UTF-8: {exc}") from None


def _dec_tuple(data: bytes, pos: int, room: int) -> Tuple[tuple, int]:
    if not room:
        raise CodecError(_NESTING_ERROR)
    room -= 1
    count = data[pos]
    if count < 0x80:
        pos += 1
    else:
        count, pos = _read_varint(data, pos)
    items: List[Any] = []
    append = items.append
    decoders = _DECODERS
    # Each item consumes at least its tag byte, so a hostile count runs
    # off the end of ``data`` after at most ``len(data)`` appends.
    for _ in range(count):
        item, pos = decoders[data[pos]](data, pos + 1, room)
        append(item)
    return tuple(items), pos


def _dec_list(data: bytes, pos: int, room: int) -> Tuple[list, int]:
    # Lists are rare on the wire (struct fields are tuples): they pay the
    # copy so that tuples need no second call.
    items, pos = _dec_tuple(data, pos, room)
    return list(items), pos


def _dec_dict(data: bytes, pos: int, room: int) -> Tuple[dict, int]:
    if not room:
        raise CodecError(_NESTING_ERROR)
    room -= 1
    count = data[pos]
    if count < 0x80:
        pos += 1
    else:
        count, pos = _read_varint(data, pos)
    result: Dict[Any, Any] = {}
    decoders = _DECODERS
    previous = None
    for _ in range(count):
        key, pos = decoders[data[pos]](data, pos + 1, room)
        value, pos = decoders[data[pos]](data, pos + 1, room)
        try:
            if result and not previous < key:
                raise CodecError("dict keys are not in ascending order")
            result[key] = value
        except TypeError as exc:  # unorderable or unhashable key
            raise CodecError(f"unusable dict key: {exc}") from None
        previous = key
    return result, pos


#: Wire type id → the class's decoder, built the first time the id is seen
#: on the wire (see :func:`_build_struct_decoder`).
_STRUCT_DECODERS: Dict[int, Callable[[bytes, int, int], Tuple[Any, int]]] = {}


def _dec_struct(data: bytes, pos: int, room: int) -> Tuple[Any, int]:
    type_id = data[pos]
    if type_id < 0x80:
        pos += 1
    else:
        type_id, pos = _read_varint(data, pos)
    try:
        decoder = _STRUCT_DECODERS[type_id]
    except KeyError:
        decoder = _build_struct_decoder(type_id)
    return decoder(data, pos, room)


def _dec_unknown(data: bytes, pos: int, room: int) -> Tuple[Any, int]:
    raise CodecError(f"unknown tag byte {data[pos - 1]:#04x}")


_DECODER_BY_TAG: Dict[int, Callable[[bytes, int, int], Tuple[Any, int]]] = {
    _TAG_NONE: lambda data, pos, room: (None, pos),
    _TAG_FALSE: lambda data, pos, room: (False, pos),
    _TAG_TRUE: lambda data, pos, room: (True, pos),
    _TAG_INT: _dec_int,
    _TAG_FLOAT: _dec_float,
    _TAG_BYTES: _dec_bytes,
    _TAG_STR: _dec_str,
    _TAG_LIST: _dec_list,
    _TAG_TUPLE: _dec_tuple,
    _TAG_DICT: _dec_dict,
    _TAG_STRUCT: _dec_struct,
}

#: Decoder by tag byte: a full 256-entry table, so dispatch is one index
#: and an unknown tag needs no ``KeyError`` handling.
_DECODERS = tuple(_DECODER_BY_TAG.get(tag, _dec_unknown) for tag in range(256))


# -- typed struct decoding -----------------------------------------------------
#
# A registered class's decoder holds every field to the class's annotation,
# so what a field of a peer's message may hold is decided here, once: a
# frame whose fields are not of their declared types is a ``CodecError``
# like any other malformed frame, and a handler never sees it.  Scalars are
# read inline by the generated decoder from :data:`_CHECKED_READ`; anything
# else (a struct, an ``Optional``, a tuple) by a *reader* built from the
# annotation (:func:`_reader`).  A reader is ``(data, pos, room) -> (value,
# pos)`` with ``pos`` *at* the value's tag byte, since the tag is what it
# checks first.


def _two_byte_varint(name: str) -> List[str]:
    """Generated lines completing the read of the varint whose first byte,
    already in ``name`` and at ``pos + 1``, is not below 0x80: a second
    byte in 1..0x7F ends it inline (every 1 KiB length, every ``int`` from
    64 to 8191), anything else goes to ``read_varint``, which refuses a
    non-minimal one."""
    return [
        "    elif 0 < data[pos + 2] < 0x80:",
        f"        {name} = ({name} & 0x7F) | (data[pos + 2] << 7)",
        "        pos += 3",
        "    else:",
        f"        {name}, pos = read_varint(data, pos + 1)",
    ]


#: How a struct's decoder reads one field of each scalar type, ``{i}`` the
#: field's index and ``{name}`` its label: the lines that check the tag and
#: step over the field (an ``int`` leaves its varint in ``v{i}``), then the
#: lines that make its value in ``v{i}``.  A self-encoded class's decoder
#: (see :func:`register`) takes the steps and only an ``int``'s value — its
#: ``float`` and ``bytes`` stay in ``wire`` — and checks once, after the
#: last field, that no step ran past the end; every other decoder takes
#: both, so no value is made from bytes that are not there.
_CHECKED_READ: Dict[type, Tuple[List[str], List[str]]] = {
    int: (
        [
            f"    if data[pos] != {_TAG_INT}:",
            "        raise CodecError('{name} is not an int')",
            "    v{i} = data[pos + 1]",
            "    if v{i} < 0x80:",
            "        pos += 2",
            *_two_byte_varint("v{i}"),
        ],
        ["    v{i} = (v{i} >> 1) ^ -(v{i} & 1)"],
    ),
    float: (
        [
            f"    if data[pos] != {_TAG_FLOAT}:",
            "        raise CodecError('{name} is not a float')",
            "    pos += 9",
        ],
        ["    v{i} = unpack_double(data, pos - 8)[0]"],
    ),
    bytes: (
        [
            f"    if data[pos] != {_TAG_BYTES}:",
            "        raise CodecError('{name} is not bytes')",
            "    length = data[pos + 1]",
            "    if length < 0x80:",
            "        pos += 2",
            *_two_byte_varint("length"),
            "    pos += length",
        ],
        [
            "    v{i} = data[pos - length:pos]",
            "    if len(v{i}) != length:",
            "        raise CodecError('truncated message')",
        ],
    ),
    str: (
        [
            f"    if data[pos] != {_TAG_STR}:",
            "        raise CodecError('{name} is not a str')",
            "    v{i}, pos = dec_str(data, pos + 1, room)",
        ],
        [],
    ),
    bool: (
        [
            "    v{i} = data[pos]",
            f"    if v{{i}} != {_TAG_TRUE} and v{{i}} != {_TAG_FALSE}:",
            "        raise CodecError('{name} is not a bool')",
            "    pos += 1",
        ],
        [f"    v{{i}} = v{{i}} == {_TAG_TRUE}"],
    ),
}


def _struct_decoder_source(cls: Type, hints: Dict[str, Any]) -> str:
    """Source of the decoder for the registered class ``cls``.

    Entered from :func:`_dec_struct` with ``pos`` just past the type id.
    The field reads are unrolled and handed to the constructor positionally
    — no value list, no loop, no ``*args`` call — which is worth about a
    fifth of the time to decode a four-field struct.  Field ``i`` of a type
    that is not a scalar is read by the reader ``r{i}``.  For a self-encoded
    class (see :func:`register`) no field but an ``int`` is decoded: each is
    checked and stepped over, and the span goes to ``from_wire`` in one
    slice, which comes out short if a step overshot the end of ``data``.
    """
    names = _field_names[cls]
    name, count = cls.__name__, len(names)
    lines = [
        "def decode_struct(data, pos, room):",
        "    count = data[pos]",
        "    if count < 0x80:",
        "        pos += 1",
        "    else:",
        "        count, pos = read_varint(data, pos)",
        f"    if count != {count}:",
        f"        raise CodecError('{name}: expected {count} fields, wire has %d' % count)",
        "    if not room:",
        "        raise CodecError(nesting_error)",
        "    room -= 1",
    ]
    self_encoded = cls in _self_encoded
    if self_encoded:
        lines.append(f"    start = pos - {len(_self_encoded[cls][0])}")  # the prefix ends here
    for i, field in enumerate(names):
        hint = hints[field]
        if hint in _CHECKED_READ:
            steps, value = _CHECKED_READ[hint]
            if self_encoded and hint is not int:
                value = []
            lines += [line.format(i=i, name=f"{name}.{field}") for line in steps + value]
        else:
            lines.append(f"    v{i}, pos = r{i}(data, pos, room)")
    if self_encoded:
        ints = "".join(f", v{i}" for i, field in enumerate(names) if hints[field] is int)
        lines += [
            "    wire = data[start:pos]",
            "    if len(wire) != pos - start:",
            "        raise CodecError('truncated message')",
            f"    return from_wire(wire{ints}), pos",
        ]
    else:
        values = ", ".join(f"v{i}" for i in range(count))
        lines += [
            "    try:",
            f"        return cls({values}), pos",
            "    except (TypeError, ValueError) as exc:",
            f"        raise CodecError('cannot reconstruct {name}: %s' % exc) from exc",
        ]
    return "\n".join(lines)


#: The decoding environment of every generated function.
_GENERATED_GLOBALS = {
    "read_varint": _read_varint,
    "unpack_double": _unpack_double,
    "dec_str": _dec_str,
    "nesting_error": _NESTING_ERROR,
    "CodecError": CodecError,
}


def _build_struct_decoder(type_id: int) -> Callable[[bytes, int, int], Tuple[Any, int]]:
    """Specialize a decoder for one registered dataclass.

    The encoder's counterpart: class, field count, field types and
    constructor are bound once.  Unlike the encoder it is built on first
    use, not by :func:`register`: compiling one for each of the 54
    registered classes added 23 ms (9 %) to process start-up, and a run
    decodes about ten of them.  The annotations are resolved here too, so
    a class may name one registered after it.
    """
    cls = _registry_by_id.get(type_id)
    if cls is None:
        raise CodecError(f"unknown wire type id {type_id}")
    hints = typing.get_type_hints(cls)
    namespace = dict(_GENERATED_GLOBALS, cls=cls, from_wire=getattr(cls, "from_wire", None))
    for i, field in enumerate(_field_names[cls]):
        if hints[field] not in _CHECKED_READ:
            namespace[f"r{i}"] = _reader(hints[field])
    # Built from the class's shape; nothing from the wire.
    exec(_struct_decoder_source(cls, hints), namespace)
    decoder = _STRUCT_DECODERS[type_id] = namespace["decode_struct"]
    return decoder


_Reader = Callable[[bytes, int, int], Tuple[Any, int]]


@functools.lru_cache(maxsize=None)  # one reader per annotation
def _reader(hint: Any) -> _Reader:
    """The reader of a value annotated ``hint``: one of the wire types
    :func:`register` lists, or a ``CodecError`` when the first decoder
    that needs it is built.  A class admits every registered class that is
    it or a subclass of it."""
    if hint in _CHECKED_READ:
        steps, value = _CHECKED_READ[hint]
        lines = ["def read(data, pos, room):"] + steps + value + ["    return v0, pos"]
        namespace = dict(_GENERATED_GLOBALS)
        exec("\n".join(line.format(i=0, name=hint.__name__) for line in lines), namespace)
        return namespace["read"]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union and len(args) == 2 and type(None) in args:
        return _optional_reader(_reader(args[0] if args[1] is type(None) else args[1]))
    if origin is tuple and args:
        variadic = args[1:] == (Ellipsis,)
        return _tuple_reader(tuple(map(_reader, args[:1] if variadic else args)), variadic)
    if isinstance(hint, type):
        ids = frozenset(i for i, cls in _registry_by_id.items() if issubclass(cls, hint))
        if ids:
            return _struct_reader(ids, hint.__name__)
    raise CodecError(f"no wire type for the annotation {hint!r}")


def _struct_reader(ids: FrozenSet[int], what: str) -> _Reader:
    def read(data: bytes, pos: int, room: int) -> Tuple[Any, int]:
        if data[pos] != _TAG_STRUCT:
            raise CodecError(f"expected a {what}")
        type_id = data[pos + 1]
        if type_id < 0x80:
            pos += 2
        else:
            type_id, pos = _read_varint(data, pos + 1)
        if type_id not in ids:
            raise CodecError(f"expected a {what}, wire has type id {type_id}")
        try:
            decoder = _STRUCT_DECODERS[type_id]
        except KeyError:
            decoder = _build_struct_decoder(type_id)
        return decoder(data, pos, room)

    return read


def _optional_reader(inner: _Reader) -> _Reader:
    def read(data: bytes, pos: int, room: int) -> Tuple[Any, int]:
        if data[pos] == _TAG_NONE:
            return None, pos + 1
        return inner(data, pos, room)

    return read


def _tuple_reader(items: Tuple[_Reader, ...], variadic: bool) -> _Reader:
    """Reader of ``Tuple[X, ...]`` (``items`` is X's reader alone) or of a
    fixed ``Tuple[A, B, ...]`` (one reader per item)."""

    def read(data: bytes, pos: int, room: int) -> Tuple[tuple, int]:
        if data[pos] != _TAG_TUPLE:
            raise CodecError("expected a tuple")
        if not room:
            raise CodecError(_NESTING_ERROR)
        room -= 1
        count = data[pos + 1]
        if count < 0x80:
            pos += 2
        else:
            count, pos = _read_varint(data, pos + 1)
        if not variadic and count != len(items):
            raise CodecError(f"expected a tuple of {len(items)}, wire has {count} items")
        values: List[Any] = []
        append = values.append
        if variadic:
            item = items[0]
            # Each item consumes at least its tag byte, so a hostile count
            # runs off the end of ``data`` after at most ``len(data)`` items.
            for _ in range(count):
                value, pos = item(data, pos, room)
                append(value)
        else:
            for item in items:
                value, pos = item(data, pos, room)
                append(value)
        return tuple(values), pos

    return read


def field_of(wire: bytes, index: int) -> Any:
    """Field ``index`` of the registered struct whose encoding is ``wire``.

    For a self-encoded instance reading its own ``wire``: the bytes are
    taken as valid and not checked again.  A ``bytes`` field comes back as
    a copy; ``wire`` itself is never aliased.
    """
    pos = 1
    while wire[pos] >= 0x80:  # type id
        pos += 1
    pos += 1
    while wire[pos] >= 0x80:  # field count
        pos += 1
    pos += 1
    decoders = _DECODERS
    for _ in range(index):
        _, pos = decoders[wire[pos]](wire, pos + 1, MAX_NESTING)
    return decoders[wire[pos]](wire, pos + 1, MAX_NESTING)[0]


_Shape = Tuple[Any, ...]

#: Shapes :func:`decode` has been asked for: shape → (the encoding of
#: everything before the class's fields, the class's struct decoder, the
#: shape's leading values).  One entry per shape a caller names in its
#: source, built on first use.
_SHAPES: Dict[_Shape, Tuple[bytes, _Reader, _Shape]] = {}


def _compile_shape(shape: _Shape) -> Tuple[bytes, _Reader, _Shape]:
    if not (type(shape) is tuple and shape and shape[-1] in _registry_by_type):
        raise CodecError(f"a shape is a tuple of values ending in a registered class: {shape!r}")
    head, type_id = shape[:-1], _registry_by_type[shape[-1]]
    out: List[bytes] = [_B_TUPLE]
    _write_varint(out, len(shape))
    for value in head:
        _encode_into(value, out)
    out.append(_B_STRUCT)
    _write_varint(out, type_id)
    decoder = _STRUCT_DECODERS.get(type_id) or _build_struct_decoder(type_id)
    compiled = _SHAPES[shape] = (b"".join(out), decoder, head)
    return compiled


def decode(data: bytes, shape: Any = None) -> Any:
    """Decode bytes produced by :func:`encode`.

    Canonical and typed: anything other than exactly what :func:`encode`
    emits for some value — trailing bytes, a non-minimal varint, dict keys
    out of order, nesting beyond :data:`MAX_NESTING` — is refused, and so
    is a registered class with a field of another type than its annotation
    (see :func:`register`).  ``CodecError`` is the only exception hostile
    bytes can raise.

    ``shape``, when given, is the one value shape the caller accepts: a
    tuple of values ending in a registered class, such as
    ``("client-tx", Transaction)`` — a tuple of that length whose leading
    items encode exactly as the shape's do and whose last item is an
    instance of exactly that class.  Decoding then compares the bytes of
    everything before the instance's fields with the shape's, encoded once,
    and runs the class's struct decoder from there, instead of walking the
    frame tag by tag.  The result is exactly ``decode(data)`` when that
    value has the shape, and a ``CodecError`` otherwise, whether or not
    ``data`` decodes to some other value.
    """
    if type(data) is not bytes:
        data = bytes(data)  # slices of it become values: keep them immutable
    try:
        if shape is None:
            value, pos = _DECODERS[data[0]](data, 1, MAX_NESTING)
        else:
            prefix, decoder, head = _SHAPES.get(shape) or _compile_shape(shape)
            if not data.startswith(prefix):
                raise CodecError(f"not of the shape {shape!r}")
            # The tuple's items nest one level down, as in _dec_tuple.
            item, pos = decoder(data, len(prefix), MAX_NESTING - 1)
            value = (*head, item)
    except (IndexError, struct.error):
        raise CodecError("truncated message") from None
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after value")
    return value


def encoded_size(value: Any) -> int:
    """Wire size of ``value`` in bytes: ``len(encode(value))``.

    The encoder's walk with the chunk lengths summed instead of the chunks
    joined.  A frozen registered dataclass keeps the result (see the module
    docstring); the memo is consulted for ``value`` itself, not for structs
    nested inside it.
    """
    global _size_cache_hits, _size_cache_misses
    cacheable = _cacheable.get(type(value), False)
    if cacheable:
        cached = value.__dict__.get(SIZE_CACHE_ATTR)
        if cached is not None:
            _size_cache_hits += 1
            return cached
        _size_cache_misses += 1
    out: List[bytes] = []
    _encode_into(value, out)
    size = sum(map(len, out))
    if cacheable:
        object.__setattr__(value, SIZE_CACHE_ATTR, size)
    return size


def encode_cached(value: Any) -> bytes:
    """Like :func:`encode`, memoizing the bytes on frozen struct instances.

    Broadcasting the same message object to N peers encodes once; the
    returned bytes are exactly ``encode(value)``.  Values that are not
    frozen registered dataclasses are encoded normally, uncached.
    """
    if _cacheable.get(type(value), False):
        cached = value.__dict__.get(BYTES_CACHE_ATTR)
        if cached is not None:
            return cached
        data = encode(value)
        object.__setattr__(value, BYTES_CACHE_ATTR, data)
        object.__setattr__(value, SIZE_CACHE_ATTR, len(data))
        return data
    return encode(value)
