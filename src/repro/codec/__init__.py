"""Deterministic binary wire codec and the message type-id registry."""

from .core import (
    CodecError,
    decode,
    encode,
    encode_cached,
    encoded_size,
    register,
    registered_type_id,
    registered_types,
    reset_size_cache_stats,
    size_cache_stats,
)

__all__ = [
    "CodecError",
    "decode",
    "encode",
    "encode_cached",
    "encoded_size",
    "register",
    "registered_type_id",
    "registered_types",
    "reset_size_cache_stats",
    "size_cache_stats",
]
