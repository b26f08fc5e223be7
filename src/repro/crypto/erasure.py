"""Reed–Solomon-style erasure coding over GF(256).

The dissemination layer (:mod:`repro.dissem`) splits each block payload
into ``n`` coded shares of which **any** ``k = f+1`` reconstruct the
original bytes — so a leader can ship one small share per replica
instead of broadcasting the whole payload, and replicas can finish the
job by pulling the missing shares from any ``k`` peers, Byzantine or
not.

The code is systematic Lagrange interpolation over GF(256) with the
conventional ``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D) reduction polynomial:

* the payload is split into ``k`` equal data shards ``d_0 .. d_{k-1}``
  (zero-padded), interpreted byte-column-wise as the values of a
  degree-``< k`` polynomial at the points ``0 .. k-1``;
* share ``i`` is the polynomial evaluated at point ``i`` — shares
  ``0 .. k-1`` are therefore the data shards themselves (systematic),
  and shares ``k .. n-1`` are parity;
* decoding interpolates the polynomial back through any ``k`` provided
  points and re-evaluates it at ``0 .. k-1``.

Everything is pure python: the per-constant multiply uses a memoized
256-byte ``bytes.translate`` table and the shard XOR runs through big
ints, so encoding a payload costs a handful of C-speed passes rather
than a per-byte python loop.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from ..errors import CryptoError

#: Largest supported share count: evaluation points are field elements.
MAX_SHARES = 255

_GF_POLY = 0x11D

_EXP: List[int] = [0] * 512
_LOG: List[int] = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= _GF_POLY
for _i in range(255, 512):
    _EXP[_i] = _EXP[_i - 255]
del _x, _i


def _gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def _gf_div(a: int, b: int) -> int:
    if b == 0:
        raise CryptoError("GF(256) division by zero")
    if a == 0:
        return 0
    return _EXP[(_LOG[a] - _LOG[b]) % 255]


#: Memoized ``bytes.translate`` tables: constant c → the 256-byte map
#: v → c·v.  A sweep touches only a handful of Lagrange constants, so
#: the cache stays tiny while every shard multiply runs at C speed.
_MUL_TABLES: Dict[int, bytes] = {}


def _mul_table(c: int) -> bytes:
    table = _MUL_TABLES.get(c)
    if table is None:
        table = bytes(_gf_mul(c, v) for v in range(256))
        _MUL_TABLES[c] = table
    return table


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def _lagrange_coefficient(points: Sequence[int], at: int, target: int) -> int:
    """Lagrange basis for ``at`` over ``points``, evaluated at ``target``.

    In GF(256) addition and subtraction are both XOR, so the coefficient
    is ``Π_{m ≠ at} (target ⊕ m) / (at ⊕ m)``.
    """
    num = 1
    den = 1
    for m in points:
        if m == at:
            continue
        num = _gf_mul(num, target ^ m)
        den = _gf_mul(den, at ^ m)
    return _gf_div(num, den)


#: (interpolation points, target) → the Lagrange coefficient of each
#: point at ``target``, in the points' order.  Share indexes are below n
#: (the dissemination layer refuses others before it keeps a share), so a
#: cluster with threshold k meets at most C(n, k) point sets, each with
#: fewer than n targets.
_COEFFICIENTS: Dict[tuple, tuple] = {}


def _coefficients(points: tuple, target: int) -> tuple:
    key = (points, target)
    coefficients = _COEFFICIENTS.get(key)
    if coefficients is None:
        coefficients = _COEFFICIENTS[key] = tuple(
            _lagrange_coefficient(points, at, target) for at in points
        )
    return coefficients


def share_length(data_len: int, k: int) -> int:
    """Length in bytes of each share for a ``data_len``-byte payload."""
    if k < 1:
        raise CryptoError(f"k must be >= 1, got {k}")
    return (data_len + k - 1) // k


def encode_shares(data: bytes, k: int, n: int) -> List[bytes]:
    """Split ``data`` into ``n`` shares, any ``k`` of which reconstruct it.

    Shares ``0 .. k-1`` are the zero-padded data shards themselves;
    shares ``k .. n-1`` are GF(256) parity.  All shares have equal
    length ``share_length(len(data), k)``.
    """
    if not 1 <= k <= n <= MAX_SHARES:
        raise CryptoError(f"need 1 <= k <= n <= {MAX_SHARES}, got k={k}, n={n}")
    shard_len = share_length(len(data), k)
    padded = data.ljust(shard_len * k, b"\x00")
    shards = [padded[i * shard_len : (i + 1) * shard_len] for i in range(k)]
    shares = list(shards)
    points = tuple(range(k))
    for x in range(k, n):
        acc = bytes(shard_len)
        for shard, c in zip(shards, _coefficients(points, x)):
            if c:
                acc = _xor(acc, shard.translate(_mul_table(c)))
        shares.append(acc)
    return shares


def decode_shares(shares: Mapping[int, bytes], k: int, data_len: int) -> bytes:
    """Reconstruct the original ``data_len`` bytes from any ``k`` shares.

    Args:
        shares: share index → share bytes; at least ``k`` entries.
        k: reconstruction threshold the shares were encoded with.
        data_len: original payload length (shares carry padding).
    """
    if not 1 <= k <= MAX_SHARES:
        raise CryptoError(f"k must be in 1..{MAX_SHARES}, got {k}")
    if len(shares) < k:
        raise CryptoError(f"need {k} shares to decode, got {len(shares)}")
    chosen = tuple(sorted(shares)[:k])
    if chosen[0] < 0 or chosen[-1] >= MAX_SHARES:
        raise CryptoError(f"share index out of range 0..{MAX_SHARES - 1}: {chosen}")
    shard_len = len(shares[chosen[0]])
    for x in chosen:
        if len(shares[x]) != shard_len:
            raise CryptoError("shares have inconsistent lengths")
    if data_len > shard_len * k:
        raise CryptoError(
            f"data_len {data_len} exceeds capacity {shard_len * k} of {k} shares"
        )
    shards: List[bytes] = []
    for target in range(k):
        if target in shares:
            shards.append(shares[target])
            continue
        acc = bytes(shard_len)
        for x, c in zip(chosen, _coefficients(chosen, target)):
            if c:
                acc = _xor(acc, shares[x].translate(_mul_table(c)))
        shards.append(acc)
    return b"".join(shards)[:data_len]
