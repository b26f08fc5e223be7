"""Reed–Solomon erasure coding: systematic layout, reconstruction, errors.

The dissemination layer's correctness rests on one property: *any*
``k = f + 1`` of the ``n = 2f + 1`` shares reconstruct the exact payload
bytes.  That property is asserted here both on hand-picked subsets and
as a hypothesis property over random data, cluster sizes, and share
subsets.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.erasure import (
    MAX_SHARES,
    decode_shares,
    encode_shares,
    share_length,
)
from repro.errors import CryptoError


class TestShareLength:
    def test_exact_multiple(self):
        assert share_length(10, 2) == 5

    def test_rounds_up(self):
        assert share_length(11, 2) == 6
        assert share_length(1, 3) == 1

    def test_empty_payload(self):
        assert share_length(0, 2) == 0


class TestSystematicLayout:
    """The first k shares ARE the (padded) data, split into k slices —
    a replica holding them all decodes by concatenation, no math."""

    def test_data_shares_are_data_slices(self):
        data = bytes(range(10))
        shares = encode_shares(data, k=2, n=3)
        assert len(shares) == 3
        assert shares[0] + shares[1] == data
        assert all(len(s) == share_length(len(data), 2) for s in shares)

    def test_padding_in_last_data_share(self):
        data = b"abc"
        shares = encode_shares(data, k=2, n=5)
        padded = (shares[0] + shares[1])[: len(data)]
        assert padded == data


class TestDecode:
    def test_identity_from_data_shares(self):
        data = b"hello, dissemination"
        shares = encode_shares(data, k=3, n=5)
        assert decode_shares({0: shares[0], 1: shares[1], 2: shares[2]}, 3, len(data)) == data

    def test_identity_from_parity_only(self):
        data = b"parity is enough"
        shares = encode_shares(data, k=2, n=5)
        assert decode_shares({3: shares[3], 4: shares[4]}, 2, len(data)) == data

    def test_identity_from_mixed_subset(self):
        data = bytes(251 * i % 256 for i in range(500))
        shares = encode_shares(data, k=5, n=9)
        subset = {0: shares[0], 2: shares[2], 5: shares[5], 7: shares[7], 8: shares[8]}
        assert decode_shares(subset, 5, len(data)) == data

    def test_extra_shares_ignored(self):
        data = b"redundant"
        shares = encode_shares(data, k=2, n=4)
        full = {i: s for i, s in enumerate(shares)}
        assert decode_shares(full, 2, len(data)) == data

    def test_corrupt_data_share_changes_output(self):
        data = bytes(range(64))
        shares = encode_shares(data, k=2, n=3)
        bad = shares[0][:-1] + bytes([shares[0][-1] ^ 0xFF])
        assert decode_shares({0: bad, 1: shares[1]}, 2, len(data)) != data


class TestErrors:
    def test_k_below_one(self):
        with pytest.raises(CryptoError):
            encode_shares(b"x", k=0, n=1)

    def test_n_below_k(self):
        with pytest.raises(CryptoError):
            encode_shares(b"x", k=3, n=2)

    def test_n_above_field(self):
        with pytest.raises(CryptoError):
            encode_shares(b"x", k=2, n=MAX_SHARES + 1)

    def test_decode_too_few_shares(self):
        shares = encode_shares(b"abcdef", k=3, n=5)
        with pytest.raises(CryptoError):
            decode_shares({0: shares[0], 1: shares[1]}, 3, 6)

    def test_decode_index_out_of_field(self):
        # The decoder does not know n, so any index inside GF(256)'s
        # point set is acceptable — but indexes outside the field are not.
        shares = encode_shares(b"abcdef", k=2, n=3)
        with pytest.raises(CryptoError):
            decode_shares({0: shares[0], MAX_SHARES: shares[1]}, 2, 6)
        with pytest.raises(CryptoError):
            decode_shares({-1: shares[0], 1: shares[1]}, 2, 6)

    def test_decode_mismatched_lengths(self):
        shares = encode_shares(b"abcdef", k=2, n=3)
        with pytest.raises(CryptoError):
            decode_shares({0: shares[0], 1: shares[1] + b"x"}, 2, 6)


@settings(max_examples=120, deadline=None)
@given(
    data=st.binary(min_size=0, max_size=2048),
    f=st.integers(min_value=1, max_value=4),
    subset_seed=st.randoms(use_true_random=False),
)
def test_any_threshold_subset_reconstructs(data, f, subset_seed):
    """encode → drop any n − (f+1) shares → decode ≡ identity.

    This is the acceptance property verbatim: with k = f + 1 and
    n = 2f + 1, every k-subset of share indexes — data, parity, or
    mixed — reconstructs the original bytes exactly.
    """
    k, n = f + 1, 2 * f + 1
    shares = encode_shares(data, k, n)
    assert len(shares) == n
    indexes = subset_seed.sample(range(n), k)
    subset = {i: shares[i] for i in indexes}
    assert decode_shares(subset, k, len(data)) == data


@settings(max_examples=40, deadline=None)
@given(data=st.binary(min_size=1, max_size=512), f=st.integers(min_value=1, max_value=3))
def test_every_exact_subset_of_small_clusters(data, f):
    """For small clusters, check *all* C(n, k) subsets, not a sample."""
    from itertools import combinations

    k, n = f + 1, 2 * f + 1
    shares = encode_shares(data, k, n)
    for combo in combinations(range(n), k):
        subset = {i: shares[i] for i in combo}
        assert decode_shares(subset, k, len(data)) == data


def _reference_shares(data: bytes, k: int, n: int):
    """``encode_shares`` with every coefficient computed afresh."""
    from repro.crypto.erasure import _lagrange_coefficient, _mul_table, _xor

    shard_len = share_length(len(data), k)
    padded = data.ljust(shard_len * k, b"\x00")
    shards = [padded[i * shard_len : (i + 1) * shard_len] for i in range(k)]
    shares = list(shards)
    for x in range(k, n):
        acc = bytes(shard_len)
        for i in range(k):
            acc = _xor(acc, shards[i].translate(_mul_table(_lagrange_coefficient(range(k), i, x))))
        shares.append(acc)
    return shares


def _reference_decode(shares, k: int, data_len: int) -> bytes:
    """``decode_shares`` with every coefficient computed afresh."""
    from repro.crypto.erasure import _lagrange_coefficient, _mul_table, _xor

    chosen = sorted(shares)[:k]
    shard_len = len(shares[chosen[0]])
    shards = []
    for target in range(k):
        acc = bytes(shard_len)
        for x in chosen:
            c = _lagrange_coefficient(chosen, x, target)
            acc = _xor(acc, shares[x].translate(_mul_table(c)))
        shards.append(acc)
    return b"".join(shards)[:data_len]


@pytest.mark.parametrize("warm", [False, True], ids=["cold-memo", "warm-memo"])
def test_memoized_coefficients_change_no_byte(warm):
    """Shares and reconstructions are those of the coefficients computed
    afresh, for every k-subset of every n <= 9, memo empty or full."""
    from itertools import combinations

    from repro.crypto import erasure

    if not warm:
        erasure._COEFFICIENTS.clear()
    data = bytes(range(7, 250, 3))
    for n in range(1, 10):
        for k in range(1, n + 1):
            shares = encode_shares(data, k, n)
            assert shares == _reference_shares(data, k, n)
            for combo in combinations(range(n), k):
                subset = {i: shares[i] for i in combo}
                got = decode_shares(subset, k, len(data))
                assert got == _reference_decode(subset, k, len(data)) == data
