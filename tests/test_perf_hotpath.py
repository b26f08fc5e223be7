"""Hot-path optimizations and the perf harness.

Covers the correctness obligations the performance overhaul created:

* ``encoded_size`` is ``len(encode(...))`` for every registered wire
  type — on the first call, from the per-instance memo, and for a copy
  with a changed field, which carries no memo;
* ``encode_cached`` is byte-identical to ``encode`` and stable across
  calls, so a memoized broadcast puts the same bytes on every link;
* the signature verification cache counts hits/misses, honors its
  eviction bound, and can never serve a Byzantine double-vote (same
  signer, different digest) from cache;
* a seeded run produces the same trace fingerprint with the verification
  cache disabled — it is observationally inert;
* the perf harness itself: statistics, direction-aware regression
  comparison, baseline round-trip, and CLI exit codes.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.crypto.signatures as signatures_mod
from repro.bench.common import make_config
from repro.codec import (
    decode,
    encode,
    encode_cached,
    encoded_size,
    registered_types,
    reset_size_cache_stats,
    size_cache_stats,
)
from repro.codec.core import BYTES_CACHE_ATTR, SIZE_CACHE_ATTR
from repro.consensus.validators import ValidatorSet
from repro.crypto.keystore import build_cluster_keys, make_scheme
from repro.crypto.signatures import KeyRegistry
from repro.errors import SimulationError
from repro.perf.compare import compare_results, load_baseline, results_document
from repro.perf.timing import BenchResult, measure, measure_rate, summarize
from repro.runner.cluster import build_cluster
from repro.sim.scheduler import Scheduler
from repro.types.block import BlockHeader, genesis_block, make_block
from repro.types.certificates import Certificate, Vote
from repro.types.messages import PayloadMsg, VoteMsg
from repro.types.transaction import make_transaction
from tests.test_codec import _struct_strategy


# -- a size is the length of the encoding (per registered type) ---------------


@pytest.mark.parametrize(
    "cls",
    [cls for _, cls in sorted(registered_types().items())],
    ids=lambda cls: cls.__name__,
)
@settings(max_examples=15, deadline=None)
@given(st.data())
def test_size_fast_path_matches_encode(cls, data):
    value = data.draw(_struct_strategy(cls))
    wire = encode(value)
    assert encoded_size(value) == len(wire)  # the encoder's walk, summed
    assert encoded_size(value) == len(wire)  # the memo, on a class that carries one
    names = [field.name for field in dataclasses.fields(cls)]
    if names:
        other = data.draw(_struct_strategy(cls))
        changed = dataclasses.replace(value, **{names[0]: getattr(other, names[0])})
        assert SIZE_CACHE_ATTR not in getattr(changed, "__dict__", {})
        assert encoded_size(changed) == len(encode(changed))


@settings(max_examples=50, deadline=None)
@given(
    st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(min_value=-(2**70), max_value=2**70),
            st.floats(allow_nan=False),
            st.binary(max_size=48),
            st.text(max_size=24),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.tuples(children, children),
            st.dictionaries(st.text(max_size=6), children, max_size=3),
        ),
        max_leaves=15,
    )
)
def test_size_fast_path_matches_encode_plain_values(value):
    assert encoded_size(value) == len(encode(value))


def _header() -> BlockHeader:
    """A frozen, dict-backed struct: the kind that carries the size memo."""
    return BlockHeader(1, 2, b"\x01" * 32, b"\x02" * 32, 100, 3, 0)


def test_size_memo_set_and_counted():
    header = _header()
    assert SIZE_CACHE_ATTR not in header.__dict__
    reset_size_cache_stats()
    first = encoded_size(header)
    assert header.__dict__.get(SIZE_CACHE_ATTR) == first
    second = encoded_size(header)
    assert second == first == len(encode(header))
    assert size_cache_stats() == {"hits": 1, "misses": 1}


def test_a_message_around_a_sized_payload_is_sized_in_full():
    """The memo belongs to the value that was asked about: a message built
    around a sized payload is walked in full, transactions included."""
    block = make_block(1, 1, b"\x00" * 32, [make_transaction(1, seq, 0.0, 64) for seq in range(4)], 0)
    assert block.header.payload_size == len(encode(block.payload))
    assert SIZE_CACHE_ATTR in block.payload.__dict__
    msg = PayloadMsg(epoch=1, height=1, block_hash=block.block_hash, payload=block.payload)
    assert encoded_size(msg) == len(encode(msg))
    tx = block.payload.transactions[0]
    assert encoded_size(tx) == len(encode(tx)) == len(tx.wire)


# -- encode_cached: memoized broadcast bytes ----------------------------------


@pytest.mark.parametrize(
    "cls",
    [cls for _, cls in sorted(registered_types().items())],
    ids=lambda cls: cls.__name__,
)
@settings(max_examples=10, deadline=None)
@given(st.data())
def test_encode_cached_byte_identical(cls, data):
    value = data.draw(_struct_strategy(cls))
    # Per-link encoding of a fresh equal value == the memoized bytes.
    reference = encode(value)
    cached = encode_cached(value)
    assert cached == reference
    assert decode(cached) == value
    # Repeat call returns the identical object (memo, not re-encode).
    assert encode_cached(value) is cached


def test_encode_cached_installs_both_memos(signers3):
    vote = Vote.create(signers3[0], "alterbft", 1, 1, b"\x07" * 32)
    msg = VoteMsg(vote=vote)
    wire = encode_cached(msg)
    assert msg.__dict__.get(BYTES_CACHE_ATTR) == wire
    assert msg.__dict__.get(SIZE_CACHE_ATTR) == len(wire)
    assert encoded_size(msg) == len(wire)


# -- verification cache -------------------------------------------------------


def _scheme_with_keys(name="hashsig", n=2, cache_size=None):
    registry = KeyRegistry()
    scheme = make_scheme(name, registry, cache_size)
    pairs = [scheme.keygen(b"seed-%d" % i) for i in range(n)]
    for i, pair in enumerate(pairs):
        registry.register(i, pair)
    return scheme, pairs


class TestVerifyCache:
    """The verify cache every scheme shares, under hashsig here and under
    schnorr in :class:`TestSchnorrVerifyCache`, which re-runs each case."""

    SCHEME = "hashsig"

    def _scheme(self, n=2, cache_size=None):
        return _scheme_with_keys(self.SCHEME, n, cache_size)

    def _elsewhere(self):
        """A cache-off instance of the scheme: what it signs is a peer's
        signature, never vouched for in the scheme under test."""
        return make_scheme(self.SCHEME, KeyRegistry(), 0)

    def test_hit_miss_counters(self):
        scheme, (pair, _) = self._scheme()
        msg = b"message"
        sig = self._elsewhere().sign(pair.secret, msg)
        assert scheme.cache_hits == scheme.cache_misses == 0
        assert scheme.verify(pair.public, msg, sig)
        assert (scheme.cache_hits, scheme.cache_misses) == (0, 1)
        assert scheme.verify(pair.public, msg, sig)
        assert (scheme.cache_hits, scheme.cache_misses) == (1, 1)

    def test_eviction_bound(self):
        scheme, (pair, _) = self._scheme(cache_size=4)
        elsewhere = self._elsewhere()
        msgs = [b"m%d" % i for i in range(10)]
        for m in msgs:
            scheme.verify(pair.public, m, elsewhere.sign(pair.secret, m))
        assert len(scheme._verify_cache) <= 4
        assert scheme.cache_evictions == 6
        # The oldest entries were evicted: verifying them again is a miss.
        misses_before = scheme.cache_misses
        scheme.verify(pair.public, msgs[0], elsewhere.sign(pair.secret, msgs[0]))
        assert scheme.cache_misses == misses_before + 1

    def test_byzantine_double_vote_never_served_from_cache(self):
        """Same signer, different digest → different key → fresh verification."""
        scheme, (pair, _) = self._scheme()
        digest_a = b"\xaa" * 32
        digest_b = b"\xbb" * 32
        sig_a = scheme.sign(pair.secret, digest_a)
        assert scheme.verify(pair.public, digest_a, sig_a)
        # Replaying vote A's signature over digest B must be recomputed
        # (cache key includes the message) and must fail.
        misses_before = scheme.cache_misses
        assert not scheme.verify(pair.public, digest_b, sig_a)
        assert scheme.cache_misses == misses_before + 1
        # A legitimate signature over digest B, made elsewhere, is also a
        # fresh computation.
        sig_b = self._elsewhere().sign(pair.secret, digest_b)
        misses_before = scheme.cache_misses
        assert scheme.verify(pair.public, digest_b, sig_b)
        assert scheme.cache_misses == misses_before + 1

    def test_forged_signature_rejected_cached_and_uncached(self):
        scheme, (pair, other) = self._scheme()
        msg = b"payload"
        forged = scheme.sign(other.secret, msg)  # wrong key
        assert not scheme.verify(pair.public, msg, forged)
        assert not scheme.verify(pair.public, msg, forged)  # cached False stays False
        assert scheme.cache_hits >= 1

    def test_signing_vouches_for_its_own_signature(self):
        """What this scheme signed enters the cache as valid under the
        secret's own public key: checking it is a hit, not a miss."""
        scheme, (pair, _) = self._scheme()
        sig = scheme.sign(pair.secret, b"own vote")
        assert scheme._verify_cache == {(pair.public, b"own vote", sig): True}
        assert scheme.cache_hits == scheme.cache_misses == 0
        assert scheme.verify(pair.public, b"own vote", sig)
        assert (scheme.cache_hits, scheme.cache_misses) == (1, 0)

    def test_cache_disabled(self):
        scheme, pairs = self._scheme(cache_size=0)
        msg = b"m"
        items = [(p.public, msg, scheme.sign(p.secret, msg)) for p in pairs]
        for _ in range(3):
            assert scheme.verify(*items[0])
            assert scheme.batch_verify(items)
            assert scheme.find_invalid(items) == []
        assert scheme.cache_hits == scheme.cache_misses == 0
        assert len(scheme._verify_cache) == 0

    def test_vote_verify_memo_tracks_scheme_identity(self):
        signers = build_cluster_keys(self.SCHEME, 3)
        vote = Vote.create(signers[0], "alterbft", 2, 5, b"\x01" * 32)
        assert vote.verify(signers[1])
        memo = vote.__dict__.get("_verify_memo")
        assert memo is not None and memo[-1] is True
        # Same scheme instance: memo is reused, result unchanged.
        assert vote.verify(signers[2])
        assert vote.__dict__.get("_verify_memo") is memo


class TestSchnorrVerifyCache(TestVerifyCache):
    """Every case above under schnorr, plus what a real signature adds: a
    batch or a certificate over triples this replica already checked costs
    lookups, and a forgery never rides on a cached verdict."""

    SCHEME = "schnorr"

    def test_forged_signature_over_a_cached_message_rejected(self):
        scheme, (pair, other) = self._scheme()
        msg = b"vote digest"
        assert scheme.verify(pair.public, msg, scheme.sign(pair.secret, msg))
        forged = scheme.sign(other.secret, msg)
        misses_before = scheme.cache_misses
        assert not scheme.verify(pair.public, msg, forged)
        assert scheme.cache_misses == misses_before + 1  # checked, not served

    def test_batch_mixing_a_cached_valid_triple_with_a_bad_one(self):
        scheme, pairs = self._scheme(n=3)
        elsewhere = self._elsewhere()
        msg = b"certificate digest"
        items = [(p.public, msg, elsewhere.sign(p.secret, msg)) for p in pairs]
        assert scheme.verify(*items[0])
        public, _, sig = items[2]
        items[2] = (public, msg, sig[:-1] + bytes([sig[-1] ^ 0x01]))
        hits_before = scheme.cache_hits
        assert not scheme.batch_verify(items)
        assert scheme.cache_hits == hits_before + 1  # the cached triple
        assert scheme.find_invalid(items) == [2]
        # The failed batch cached nothing it had not checked one by one.
        assert scheme.batch_verify(items[:2])
        assert not scheme.verify(*items[2])

    def test_certificate_over_checked_votes_costs_lookups(self):
        """The replica that assembled a certificate from votes it checked
        pays no aggregate check for it; one that never held the votes
        pays exactly one.  Each ``build_cluster_keys`` call is a separate
        scheme instance over the same keys, as on sockets."""
        peers = build_cluster_keys("schnorr", 3)
        votes = [Vote.create(s, "alterbft", 2, 5, b"\x02" * 32) for s in peers]
        verifier = build_cluster_keys("schnorr", 3)[0]
        assert all(vote.verify(verifier) for vote in votes)
        scheme = verifier.scheme
        checked = scheme.cache_misses
        qc = Certificate.assemble(votes, verifier)
        assert scheme.cache_misses == checked  # assembling checks nothing
        validators = ValidatorSet.synchronous(3, 1)
        assert qc._verify_uncached(verifier, validators)
        assert scheme.cache_misses == checked  # the assembler vouched for it
        assert decode(encode(qc))._verify_uncached(verifier, validators)
        assert scheme.cache_misses == checked  # a received copy is a lookup
        stranger = build_cluster_keys("schnorr", 3)[1]
        assert decode(encode(qc))._verify_uncached(stranger, validators)
        assert (stranger.scheme.cache_hits, stranger.scheme.cache_misses) == (0, 1)


def _flipped(vote):
    """``vote`` with the last byte of its signature flipped."""
    sig = vote.signature
    return dataclasses.replace(vote, signature=sig[:-1] + bytes([sig[-1] ^ 0x01]))


@pytest.mark.parametrize("scheme_name", ["hashsig", "schnorr"])
class TestVouching:
    """An aggregate is vouched for only over inputs held as valid, and
    with the cache off nothing is.  ``build_cluster_keys`` calls are
    separate scheme instances over the same keys: ``peers`` sign, the
    replica under test (id 0) holds its own scheme, as on sockets."""

    VALIDATORS = ValidatorSet.synchronous(3, 1)

    @staticmethod
    def _votes(signers, block_hash=b"\x03" * 32):
        return [Vote.create(s, "alterbft", 1, 4, block_hash) for s in signers]

    def test_an_input_never_verified_here_is_not_vouched(self, scheme_name):
        peers = build_cluster_keys(scheme_name, 3)
        me = build_cluster_keys(scheme_name, 3)[0]
        own, checked, unchecked = self._votes([me, peers[1], peers[2]])
        assert checked.verify(me)
        qc = Certificate.assemble([own, checked, unchecked], me)
        misses = me.scheme.cache_misses
        assert qc._verify_uncached(me, self.VALIDATORS)
        assert me.scheme.cache_misses == misses + 1  # checked, not vouched
        if scheme_name == "schnorr":
            # A hashsig aggregate is a MAC under the signers' combined
            # secret and does not depend on the member signatures, so
            # only a half-aggregate can show a forged member.
            forged = Certificate.assemble([own, checked, _flipped(unchecked)], me)
            assert not forged._verify_uncached(me, self.VALIDATORS)
            assert me.scheme.cache_misses == misses + 2

    def test_an_evicted_input_is_not_vouched(self, scheme_name):
        peers = build_cluster_keys(scheme_name, 3)
        me = build_cluster_keys(scheme_name, 3, cache_size=2)[0]
        first, second = self._votes(peers[1:])
        assert first.verify(me) and second.verify(me)
        (own,) = self._votes([me])  # vouched; evicts ``first``
        assert me.scheme.cache_evictions == 1
        qc = Certificate.assemble([own, first, second], me)
        misses = me.scheme.cache_misses
        assert qc._verify_uncached(me, self.VALIDATORS)
        assert me.scheme.cache_misses == misses + 1

    def test_a_certificate_over_held_inputs_is_vouched(self, scheme_name):
        peers = build_cluster_keys(scheme_name, 3)
        me = build_cluster_keys(scheme_name, 3)[0]
        votes = self._votes([me, peers[1], peers[2]])
        assert all(vote.verify(me) for vote in votes)
        qc = Certificate.assemble(votes, me)
        hits, misses = me.scheme.cache_hits, me.scheme.cache_misses
        assert decode(encode(qc))._verify_uncached(me, self.VALIDATORS)
        assert (me.scheme.cache_hits, me.scheme.cache_misses) == (hits + 1, misses)

    def test_nothing_is_vouched_with_the_cache_off(self, scheme_name):
        signers = build_cluster_keys(scheme_name, 3, cache_size=0)
        votes = self._votes(signers)
        assert all(vote.verify(signers[0]) for vote in votes)
        qc = Certificate.assemble(votes, signers[0])
        assert qc._verify_uncached(signers[0], self.VALIDATORS)
        scheme = signers[0].scheme
        assert len(scheme._verify_cache) == 0
        assert scheme.cache_hits == scheme.cache_misses == 0


def test_batch_micro_builds_its_schemes_with_the_cache_off(monkeypatch):
    """``bench_crypto_batch`` checks the same triples every repetition, so
    with a verify cache its rows would time dict lookups.  ``bench_crypto``
    keeps one cached scheme for its hit row: there, a timed ``sign``
    enters nothing in any cache, a miss row's every check is computed, and
    a hit row's every check is a lookup."""
    from repro.crypto.signatures import SignatureScheme
    from repro.perf import micro

    built = []
    init = SignatureScheme.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(SignatureScheme, "__init__", recording_init)
    monkeypatch.setattr(micro, "BATCH_FLOOD_SIZES", (2,))
    monkeypatch.setattr(micro, "CERT_QUORUM", 3)
    names = {result.name for result in micro.bench_crypto_batch(reps=1)}
    assert "crypto.qc_verify_agg" in names and "crypto.qc_verify_raw" not in names
    assert [scheme.name for scheme in built] == ["schnorr", "schnorr"]
    assert all(scheme.cache_size == 0 for scheme in built)
    assert sum(scheme.cache_hits + scheme.cache_misses for scheme in built) == 0

    writes = []
    remember = SignatureScheme._remember

    def recording_remember(self, key, verdict):
        if self.cache_size > 0:
            writes.append(key)
        remember(self, key, verdict)

    def totals():
        """(hits, misses, cache writes), summed over every scheme built."""
        hits = sum(scheme.cache_hits for scheme in built)
        return hits, sum(scheme.cache_misses for scheme in built), len(writes)

    moved = {}
    measure = micro.measure

    def observing_measure(name, fn, *args, **kwargs):
        before = totals()
        fn()
        moved[name] = tuple(after - was for after, was in zip(totals(), before))
        return measure(name, fn, *args, **kwargs)

    built.clear()
    monkeypatch.setattr(SignatureScheme, "_remember", recording_remember)
    monkeypatch.setattr(micro, "measure", observing_measure)
    micro.bench_crypto(reps=1, inner=3)
    assert moved == {
        "crypto.sign": (0, 0, 0),
        "crypto.verify_miss": (0, 3, 3),
        "crypto.verify_hit": (3, 0, 0),
    }


# -- determinism: optimizations are observationally inert ---------------------

#: Fingerprint of make_config("alterbft", f=1, rate=500, duration=1.5,
#: seed=7), recorded with all optimizations active.  Any change to this
#: value means an "optimization" altered simulation behavior.
GOLDEN_FINGERPRINT = "c8f71948e02304598aa527bc5e309954d82e490d985901c90bb7c7fcba1cc357"

#: The same seeded run with the certificate-bearing optional layers on:
#: lazily batch-verified votes, checkpoint certificates, guard probes.
#: Pins the flags-on path to a value, where the per-layer tests only
#: compare it run against run.
FLAGS_ON = dict(crypto_batch=True, guard_enabled=True, checkpoint_interval=4)
GOLDEN_FINGERPRINT_FLAGS_ON = "780dd75024a6b6e4d6cf85b8aa7f72a76ebe5d9ae526686b39985719599ef5b4"


def _build_cluster(f=1, duration=1.5, faults=(), observability=False, **protocol_overrides):
    """The seeded run every fingerprint pin shares, not yet started."""
    cfg = make_config(
        "alterbft",
        f=f,
        rate=500.0,
        duration=duration,
        seed=7,
        faults=faults,
        **protocol_overrides,
    )
    return build_cluster(dataclasses.replace(cfg, observability=observability))


def _run_cluster(**kwargs):
    """:func:`_build_cluster`, run to its horizon."""
    cluster = _build_cluster(**kwargs)
    cluster.start()
    cluster.run()
    return cluster


def _run_fingerprint(**protocol_overrides) -> str:
    """Fingerprint of the seeded run; also checks every committed payload's
    root survives the wire (the leaves are the bytes the transactions arrived as)."""
    cluster = _run_cluster(**protocol_overrides)
    committed = cluster.replicas[0].ledger
    assert committed.height > 0
    for height in range(1, committed.height + 1):
        block = committed.block_at(height)
        received = decode(encode(block.payload))
        assert received is not block.payload and "merkle_root" not in received.__dict__
        assert received.merkle_root == block.header.payload_root
    return cluster.fingerprint()


def test_golden_fingerprint_with_optimizations_on():
    assert _run_fingerprint() == GOLDEN_FINGERPRINT


def test_golden_fingerprint_with_flags_on():
    assert _run_fingerprint(**FLAGS_ON) == GOLDEN_FINGERPRINT_FLAGS_ON


#: Composed fences.  ``GOLDEN_FINGERPRINT_FLAGS_ON`` has no dissemination,
#: no restart and never leaves rung 0 of the Δ ladder; these two runs add
#: exactly those, through a crash and rejoin of replica 1.
#:
#: A — guard + checkpointing + batched crypto, pipelined: the
#: cluster installs rung 2 at t ≈ 0.62, replica 1 crashes at 1.0 and
#: restarts at 2.0 still on rung 2 (Δ = 20 ms), and catches up.
FENCE_A = dict(
    f=2,
    duration=3.0,
    crypto_batch=True,
    guard_enabled=True,
    checkpoint_interval=4,
    pipeline_depth=2,
    faults=((1, "crash-recover@1.0:2.0"), (3, "slow-link@0.6:1.6")),
)
FENCE_A_FINGERPRINT = "b29194b02ab0da65db5936900e42aaf924ad46ea5adc93b4db7ee7eb5d5e78af"
#: B — chunked dissemination + checkpointing, pipelined: the rejoiner
#: reconstructs the payloads it missed from peers' shares.
FENCE_B = dict(
    f=2,
    duration=3.0,
    dissemination=True,
    checkpoint_interval=4,
    pipeline_depth=2,
    faults=((1, "crash-recover@1.0:2.0"),),
)
FENCE_B_FINGERPRINT = "7dd5b693b593e0c9683b54c5d80ac70248309cc86ec4d0ed02e0bb607f79a75c"


def test_fence_guard_ladder_survives_restart():
    cluster = _run_cluster(**FENCE_A)
    assert cluster.fingerprint() == FENCE_A_FINGERPRINT
    rejoiner = cluster.replicas[1]
    assert rejoiner.subsystems["recovery"].caught_up_at is not None
    assert rejoiner.subsystems["guard"].rung == 2
    assert rejoiner._delta() == pytest.approx(0.02)
    assert [r.ledger.height for r in cluster.replicas] == [691, 689, 691, 691, 691]


def test_fence_dissemination_rejoin():
    cluster = _run_cluster(**FENCE_B)
    assert cluster.fingerprint() == FENCE_B_FINGERPRINT
    assert cluster.replicas[1].subsystems["recovery"].caught_up_at is not None
    assert cluster.trace.counters["dissem_reconstructed"] == 392
    assert [r.ledger.height for r in cluster.replicas] == [97, 98, 98, 98, 98]


def test_dispatch_table_with_every_subsystem_attached():
    """The message classes a replica dispatches, as the replica sees them."""
    from repro.types import messages as m

    core = {
        m.VoteMsg,
        m.BlameMsg,
        m.BlameCertMsg,
        m.EquivocationProofMsg,
        m.StatusMsg,
        m.PayloadRequestMsg,
        m.PayloadResponseMsg,
    }
    recovery = {
        m.CheckpointVoteMsg,
        m.StatusRequestMsg,
        m.StatusResponseMsg,
        m.SnapshotRequestMsg,
        m.SnapshotResponseMsg,
    }
    fetch = {m.BlockRangeRequestMsg, m.BlockRangeResponseMsg}
    guard = {m.GuardProbeMsg, m.GuardProbeEchoMsg, m.DeltaAdjustMsg, m.DeltaAdjustCertMsg}
    dissem = {m.ChunkShareMsg, m.ChunkRequestMsg, m.ChunkResponseMsg}
    alterbft = {m.ProposalHeaderMsg, m.PayloadMsg}

    flags = dict(guard_enabled=True, checkpoint_interval=4)
    cluster = build_cluster(make_config("alterbft", dissemination=True, **flags))
    handled = set(cluster.replicas[0]._bound_handlers)
    assert handled == core | fetch | alterbft | recovery | guard | dissem
    assert len(handled) == 23

    cluster = build_cluster(make_config("sync-hotstuff", **flags))
    handled = set(cluster.replicas[0]._bound_handlers)
    assert handled == core | fetch | {m.SHProposalMsg} | recovery | guard
    assert len(handled) == 19


def test_golden_fingerprint_with_optimizations_off(monkeypatch):
    """Verification cache off → identical trace, and the same frame-hashed
    payload roots."""
    monkeypatch.setattr(signatures_mod, "VERIFY_CACHE_DEFAULT", 0)
    assert _run_fingerprint() == GOLDEN_FINGERPRINT


# -- scheduler: fire-and-forget posting ---------------------------------------


class TestSchedulerPost:
    def test_post_at_orders_by_time_then_fifo(self):
        scheduler = Scheduler()
        seen = []
        scheduler.post_at(2.0, seen.append, "late")
        scheduler.post_at(1.0, seen.append, "early-a")
        scheduler.post_at(1.0, seen.append, "early-b")
        scheduler.run()
        assert seen == ["early-a", "early-b", "late"]
        assert scheduler.now == 2.0

    def test_post_after_relative(self):
        scheduler = Scheduler()
        seen = []

        def chain():
            scheduler.post_at(scheduler.now + 0.5, lambda: seen.append(scheduler.now))

        scheduler.post_at(scheduler.now + 1.0, chain)
        scheduler.run()
        assert seen == [1.5]

    def test_post_at_past_rejected(self):
        scheduler = Scheduler()
        scheduler.post_at(5.0, lambda: None)
        scheduler.run()
        with pytest.raises(SimulationError):
            scheduler.post_at(4.0, lambda: None)

    def test_post_after_negative_rejected(self):
        scheduler = Scheduler()
        with pytest.raises(SimulationError):
            scheduler.post_at(scheduler.now - 0.1, lambda: None)

    def test_run_until_stops_clock(self):
        scheduler = Scheduler()
        seen = []
        scheduler.post_at(1.0, seen.append, "a")
        scheduler.post_at(3.0, seen.append, "b")
        scheduler.run(until=2.0)
        assert seen == ["a"]
        assert scheduler.now == 2.0
        scheduler.run()
        assert seen == ["a", "b"]

    def test_interleaves_with_timers(self):
        scheduler = Scheduler()
        seen = []
        handle = scheduler.at(1.0, lambda: seen.append("timer"))
        assert not handle.cancelled
        scheduler.post_at(0.5, seen.append, "post")
        scheduler.run()
        assert seen == ["post", "timer"]

    def test_run_with_event_budget(self):
        scheduler = Scheduler()
        seen = []
        for i in range(5):
            scheduler.post_at(float(i), seen.append, i)
        scheduler.run(max_events=2)
        assert seen == [0, 1]
        scheduler.run()
        assert seen == [0, 1, 2, 3, 4]


# -- perf harness -------------------------------------------------------------


class TestTiming:
    def test_summarize_statistics(self):
        result = summarize("x", "s/op", "lower", [3.0, 1.0, 2.0])
        assert result.p50 == 2.0
        assert result.mean == 2.0
        assert result.reps == 3
        assert result.stdev == 1.0

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize("x", "s/op", "lower", [])

    def test_measure_scale_invariance(self):
        calls = []
        result = measure("x", lambda: calls.append(1), reps=3, inner=4, scale=5)
        assert len(calls) == 3 * 4
        assert result.reps == 3
        assert result.direction == "lower"
        assert result.meta["inner"] == 4 and result.meta["scale"] == 5
        assert all(v >= 0.0 for v in result.values)

    def test_measure_setup_outside_timed_region(self):
        order = []
        measure(
            "x",
            lambda: order.append("run"),
            reps=2,
            inner=1,
            setup=lambda: order.append("setup"),
        )
        assert order == ["setup", "run", "setup", "run"]

    def test_measure_rate_higher_is_better(self):
        samples = iter([10.0, 20.0, 30.0])
        result = measure_rate("x", lambda: next(samples), reps=3, unit="tx/s")
        assert result.direction == "higher"
        assert result.p50 == 20.0

    def test_roundtrip_dict(self):
        result = summarize("x", "s/op", "lower", [1.0, 2.0], meta={"k": 1})
        assert BenchResult.from_dict(result.to_dict()) == result


def _result(name, p50, direction="lower"):
    return BenchResult(
        name=name, unit="s/op", direction=direction, reps=3,
        p50=p50, mean=p50, stdev=0.0,
    )


class TestCompare:
    def test_lower_direction_regression(self):
        outcome = compare_results([_result("a", 1.3)], [_result("a", 1.0)])
        assert not outcome.ok
        assert outcome.regressions[0].name == "a"
        assert outcome.regressions[0].change == pytest.approx(0.3)

    def test_lower_direction_improvement_ok(self):
        outcome = compare_results([_result("a", 0.5)], [_result("a", 1.0)])
        assert outcome.ok
        assert outcome.deltas[0].change == pytest.approx(-0.5)

    def test_higher_direction_regression(self):
        current = [_result("tps", 70.0, "higher")]
        baseline = [_result("tps", 100.0, "higher")]
        outcome = compare_results(current, baseline)
        assert not outcome.ok

    def test_higher_direction_growth_ok(self):
        outcome = compare_results(
            [_result("tps", 200.0, "higher")], [_result("tps", 100.0, "higher")]
        )
        assert outcome.ok

    def test_within_threshold_ok(self):
        outcome = compare_results([_result("a", 1.2)], [_result("a", 1.0)])
        assert outcome.ok  # +20% < default 25%

    def test_custom_threshold(self):
        outcome = compare_results(
            [_result("a", 1.2)], [_result("a", 1.0)], threshold=0.1
        )
        assert not outcome.ok

    def test_missing_entries_never_fail(self):
        outcome = compare_results([_result("new", 1.0)], [_result("old", 1.0)])
        assert outcome.ok
        assert outcome.missing_in_baseline == ["new"]
        assert outcome.missing_in_current == ["old"]

    def test_degenerate_baseline_skipped(self):
        outcome = compare_results([_result("a", 1.0)], [_result("a", 0.0)])
        assert outcome.ok
        assert outcome.deltas == []

    def test_baseline_roundtrip(self, tmp_path):
        results = [_result("a", 1.0), _result("tps", 50.0, "higher")]
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(results_document(results, fast=False)))
        loaded = load_baseline(str(path))
        assert loaded == results

    def test_results_document_shape(self):
        doc = results_document([_result("a", 1.0)], fast=True)
        assert doc["schema"] == 1
        assert doc["fast"] is True
        assert len(doc["benchmarks"]) == 1


class TestCli:
    @pytest.fixture
    def canned_suite(self, monkeypatch):
        import repro.perf.__main__ as cli

        def install(results):
            monkeypatch.setattr(cli, "run_suite", lambda **kw: list(results))

        return install

    def _main(self, argv):
        from repro.perf.__main__ import main

        return main(argv)

    def test_writes_output_and_exits_zero(self, tmp_path, canned_suite):
        canned_suite([_result("a", 1.0)])
        out = tmp_path / "bench.json"
        assert self._main(["--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["benchmarks"][0]["name"] == "a"

    def test_regression_exits_nonzero(self, tmp_path, canned_suite):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(results_document([_result("a", 1.0)], fast=False))
        )
        canned_suite([_result("a", 2.0)])
        out = tmp_path / "bench.json"
        code = self._main(["--out", str(out), "--compare", str(baseline)])
        assert code == 1

    def test_warn_only_exits_zero(self, tmp_path, canned_suite):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(results_document([_result("a", 1.0)], fast=False))
        )
        canned_suite([_result("a", 2.0)])
        out = tmp_path / "bench.json"
        code = self._main(
            ["--out", str(out), "--compare", str(baseline), "--warn-only"]
        )
        assert code == 0

    def test_clean_compare_exits_zero(self, tmp_path, canned_suite):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(results_document([_result("a", 1.0)], fast=False))
        )
        canned_suite([_result("a", 1.05)])
        out = tmp_path / "bench.json"
        code = self._main(["--out", str(out), "--compare", str(baseline)])
        assert code == 0


def test_micro_suite_runs_quickly():
    """Smoke: the micro benchmarks execute and produce sane results."""
    from repro.perf.micro import bench_scheduler

    results = bench_scheduler(reps=2, inner=100)
    assert len(results) == 1
    assert results[0].name == "scheduler.push_pop"
    assert results[0].p50 > 0
