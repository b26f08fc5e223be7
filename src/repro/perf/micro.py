"""Microbenchmarks for the simulator's hot paths.

Each benchmark targets one layer the hot-path overhaul touched: codec
encode/decode and sizing (first call and memo hit), signature sign/verify
(cache miss and cache hit separately), scheduler event push/pop, simulated
broadcast, and a client connection's frames going into the mempool.
Fixtures are deterministic, so two runs on the same machine measure the
same work.
"""

from __future__ import annotations

import asyncio
import random
from typing import Callable, List

from ..codec import encode, decode, encoded_size
from ..codec.core import SIZE_CACHE_ATTR
from ..consensus.validators import ValidatorSet
from ..crypto.keystore import build_cluster_keys
from ..crypto.signatures import HashSignatureScheme, KeyRegistry
from ..mempool.mempool import Mempool
from ..net.delay import HybridCloudDelayModel
from ..net.simnet import SimNetwork
from ..net.transport import FrameReader, encode_frame, read_frame
from ..config import NetworkConfig
from ..sim.rng import RngFactory
from ..sim.scheduler import Scheduler
from ..types.block import make_block, BlockPayload, genesis_block
from ..types.certificates import Certificate, Vote
from ..types.messages import PayloadMsg, VoteMsg
from ..types.transaction import Transaction
from .timing import BenchResult, measure

#: Transactions per benchmark payload (a mid-size block).
PAYLOAD_TXS = 128
TX_BYTES = 256

#: The bulk path's block shape (``tcp_hashsig_bulk`` in BENCHMARK.json).
BULK_PAYLOAD_TXS = 400
BULK_TX_BYTES = 1024


def _make_transactions(count: int = PAYLOAD_TXS, tx_bytes: int = TX_BYTES) -> List[Transaction]:
    rng = random.Random(42)
    return [
        Transaction(
            client_id=i % 16,
            seq=i,
            submitted_at=float(i) * 1e-3,
            payload=rng.randbytes(tx_bytes),
        )
        for i in range(count)
    ]


def _make_block():
    signers = build_cluster_keys("hashsig", 4)
    payload = BlockPayload(transactions=tuple(_make_transactions()))
    genesis = genesis_block()
    return make_block(
        epoch=3,
        height=1,
        parent=genesis.block_hash,
        transactions=payload.transactions,
        proposer=0,
    ), signers


def _strip_block_memos(block) -> None:
    """Forget the block's size, so the next ``encoded_size(block)`` walks it.

    Only the value being sized is looked up in the memo; what its header
    and payload remember is not consulted.
    """
    block.__dict__.pop(SIZE_CACHE_ATTR, None)


def bench_codec(reps: int, inner: int) -> List[BenchResult]:
    block, signers = _make_block()
    wire = encode(block)
    vote = Vote.create(signers[1], "alterbft", 3, 7, block.block_hash)
    vote_msg = VoteMsg(vote=vote)
    # The two things every replica does per transaction on the bulk path:
    # read it off a client connection, and (as a follower) read it again
    # inside the leader's payload and check the payload's Merkle root.
    bulk = tuple(_make_transactions(BULK_PAYLOAD_TXS, BULK_TX_BYTES))
    client_frame = encode(("client-tx", bulk[0]))
    payload_frame = encode(BlockPayload(transactions=bulk))
    payload_msg = PayloadMsg(
        epoch=3, height=1, block_hash=block.block_hash, payload=BlockPayload(transactions=bulk)
    )

    results = [
        measure(
            "codec.encode_block",
            lambda: encode(block),
            reps,
            inner,
            meta={"txs": PAYLOAD_TXS, "wire_bytes": len(wire)},
        ),
        measure(
            "codec.decode_block",
            lambda: decode(wire),
            reps,
            inner,
            meta={"txs": PAYLOAD_TXS, "wire_bytes": len(wire)},
        ),
        measure(
            "codec.decode_client_tx",
            lambda: decode(client_frame),
            reps,
            inner,
            meta={"tx_bytes": BULK_TX_BYTES, "wire_bytes": len(client_frame)},
        ),
        measure(
            "codec.decode_payload_root",
            lambda: decode(payload_frame).merkle_root,
            reps,
            inner=10,
            scale=BULK_PAYLOAD_TXS,
            unit="s/tx",
            meta={
                "txs": BULK_PAYLOAD_TXS,
                "tx_bytes": BULK_TX_BYTES,
                "wire_bytes": len(payload_frame),
                "note": "decode + merkle_root: a follower's cost per block, per tx",
            },
        ),
        measure(
            "codec.encode_payload_msg",
            lambda: encode(payload_msg),
            reps,
            inner=10,
            scale=BULK_PAYLOAD_TXS,
            unit="s/tx",
            meta={
                "txs": BULK_PAYLOAD_TXS,
                "tx_bytes": BULK_TX_BYTES,
                "note": "the leader's cost to put a full block on the wire, per tx",
            },
        ),
        measure(
            "codec.size_block_cold",
            lambda: encoded_size(block),
            reps,
            inner=1,
            setup=lambda: _strip_block_memos(block),
            meta={"txs": PAYLOAD_TXS, "note": "the encoder's walk, summed; memo stripped per repetition"},
        ),
        measure(
            "codec.size_block_hot",
            lambda: encoded_size(block),
            reps,
            inner,
            meta={"note": "served from the per-instance memo"},
        ),
        measure(
            "codec.size_vote_msg_hot",
            lambda: encoded_size(vote_msg),
            reps,
            inner,
            meta={"note": "memoized after first call"},
        ),
    ]
    return results


def bench_crypto(reps: int, inner: int) -> List[BenchResult]:
    registry = KeyRegistry()
    scheme = HashSignatureScheme(registry)
    pair = scheme.keygen(b"perf-seed")
    registry.register(0, pair)
    messages = [b"perf-message-%d" % i for i in range(inner)]
    signatures = [scheme.sign(pair.secret, m) for m in messages]

    def sign_all() -> None:
        for m in messages:
            scheme.sign(pair.secret, m)

    def verify_all_miss() -> None:
        fresh = HashSignatureScheme(registry)
        for m, s in zip(messages, signatures):
            fresh.verify(pair.public, m, s)

    def verify_all_hit() -> None:
        for m, s in zip(messages, signatures):
            scheme.verify(pair.public, m, s)

    # Warm the shared scheme's cache so verify_all_hit measures hits only.
    verify_all_hit()
    return [
        measure("crypto.sign", sign_all, reps, 1, scale=inner, unit="s/op",
                meta={"ops": inner}),
        measure("crypto.verify_miss", verify_all_miss, reps, 1, scale=inner,
                unit="s/op",
                meta={"ops": inner, "note": "fresh cache each repetition"}),
        measure("crypto.verify_hit", verify_all_hit, reps, 1, scale=inner,
                unit="s/op", meta={"ops": inner}),
    ]


#: Vote-flood sizes for the batch-vs-serial comparison: the f+1 quorums
#: of n = 2f+1 clusters at f ∈ {2, 4, 8, 16}.
BATCH_FLOOD_SIZES = (5, 9, 17, 33)

#: Signer-set size for the certificate-level aggregate verify bench.
CERT_QUORUM = 9


def bench_crypto_batch(reps: int) -> List[BenchResult]:
    """Schnorr batch/aggregate vs serial verification on the cert hot path.

    The acceptance bar for the batching layer: batch verification of a
    vote flood must beat ``n`` independent ``verify()`` calls by ≥2× at
    quorum-sized floods.  One aggregate certificate check is timed too.
    Schnorr is the scheme whose verify cost dominates (real elliptic-curve
    arithmetic); reps are low because single ops are milliseconds.  Every
    scheme here has its verify cache off (``cache_size=0``): each
    repetition checks the same triples, and a cache would time lookups.
    """
    from ..crypto.schnorr import SchnorrSignatureScheme

    scheme = SchnorrSignatureScheme(cache_size=0)
    max_n = max(BATCH_FLOOD_SIZES)
    pairs = [scheme.keygen(bytes([i, 0x5A])) for i in range(max_n)]
    message = b"perf-batch-flood"
    items = [(p.public, message, scheme.sign(p.secret, message)) for p in pairs]

    results: List[BenchResult] = []
    for size in BATCH_FLOOD_SIZES:
        flood = items[:size]

        def serial(flood=flood) -> None:
            for public, msg, sig in flood:
                scheme.verify(public, msg, sig)

        def batch(flood=flood) -> None:
            scheme.batch_verify(flood)

        results.append(
            measure(f"crypto.schnorr_verify_serial_n{size}", serial, reps, 1,
                    scale=size, unit="s/sig", meta={"flood": size}))
        results.append(
            measure(f"crypto.schnorr_verify_batch_n{size}", batch, reps, 1,
                    scale=size, unit="s/sig", meta={"flood": size}))

    # Certificate-level: one aggregate signature over a quorum.
    # _verify_uncached bypasses the per-object memo so every call does
    # the cryptographic work the wire format implies.
    signers = build_cluster_keys("schnorr", CERT_QUORUM, cache_size=0)
    votes = tuple(
        Vote.create(signers[i], "alterbft", 3, 7, b"\x07" * 32)
        for i in range(CERT_QUORUM)
    )
    verifier = signers[0]
    validators = ValidatorSet(n=CERT_QUORUM, f=0, quorum=CERT_QUORUM)
    agg_qc = Certificate.assemble(votes, verifier)
    results.append(
        measure(
            "crypto.qc_verify_agg",
            lambda: agg_qc._verify_uncached(verifier, validators),
            reps, 1,
            meta={"quorum": CERT_QUORUM, "scheme": "schnorr",
                  "wire_bytes": len(encode(agg_qc))}))
    return results


def bench_scheduler(reps: int, inner: int) -> List[BenchResult]:
    def push_pop() -> None:
        scheduler = Scheduler()
        rng = random.Random(7)
        noop: Callable[[], None] = lambda: None
        for _ in range(inner):
            scheduler.post_at(rng.random(), noop)
        scheduler.run()

    return [
        measure("scheduler.push_pop", push_pop, reps, 1, scale=inner,
                unit="s/event", meta={"events": inner}),
    ]


def bench_simnet(reps: int, inner: int) -> List[BenchResult]:
    block, signers = _make_block()
    # The shape of a benchmark run's send path: n = 7, the trace's
    # accountant, egress serialization with the priority lane where
    # build_cluster puts it, small and large messages alternating.
    net_config = NetworkConfig()
    vote_msg = VoteMsg(vote=Vote.create(signers[1], "alterbft", 3, 7, block.block_hash))
    payload_msg = PayloadMsg(epoch=3, height=1, block_hash=block.block_hash, payload=block.payload)

    def accounted_run() -> None:
        scheduler = Scheduler()
        network = SimNetwork(
            scheduler,
            HybridCloudDelayModel(net_config),
            RngFactory(11),
            egress_bandwidth=net_config.egress_bandwidth,
            priority_threshold=net_config.small_threshold,
        )
        for node in range(7):
            network.attach(node, lambda src, msg: None)
        for i in range(inner):
            network.broadcast(i % 7, payload_msg if i % 2 else vote_msg)
        scheduler.run()

    return [
        measure("simnet.broadcast_accounted", accounted_run, reps, 1, scale=inner,
                unit="s/broadcast",
                meta={"nodes": 7, "broadcasts": inner,
                      "note": "WireAccountant attached, egress queue on, vote/payload alternating"}),
    ]


#: Client frames per ingest repetition: five bulk blocks' worth.
INGEST_TXS = 5 * BULK_PAYLOAD_TXS


def bench_transport(reps: int) -> List[BenchResult]:
    """A client connection's receive loop, without the socket.

    Pre-framed ``("client-tx", tx)`` frames sit in an in-memory
    ``StreamReader``; each goes ``FrameReader`` → ``read_frame`` →
    ``Mempool.add``, as in ``AsyncReplicaNode._on_connection``.
    """
    stream = b"".join(
        encode_frame(("client-tx", tx)) for tx in _make_transactions(INGEST_TXS, BULK_TX_BYTES)
    )

    async def ingest() -> None:
        reader = asyncio.StreamReader()
        reader.feed_data(stream)
        reader.feed_eof()
        frames = FrameReader(reader)
        pool = Mempool()
        try:
            while True:
                pool.add((await read_frame(frames))[1])
        except asyncio.IncompleteReadError:
            pass
        if len(pool) != INGEST_TXS:
            raise RuntimeError(f"pooled {len(pool)} of {INGEST_TXS} transactions")

    loop = asyncio.new_event_loop()
    try:
        return [
            measure(
                "transport.ingest_client_tx",
                lambda: loop.run_until_complete(ingest()),
                reps,
                1,
                scale=INGEST_TXS,
                unit="s/tx",
                meta={"txs": INGEST_TXS, "tx_bytes": BULK_TX_BYTES, "stream_bytes": len(stream)},
            )
        ]
    finally:
        loop.close()


def run_micro(fast: bool) -> List[BenchResult]:
    # Fast mode trims repetitions only; per-repetition batch sizes stay
    # identical so per-op numbers compare one-to-one across modes.
    reps = 5 if fast else 9
    results: List[BenchResult] = []
    results += bench_codec(reps, inner=200)
    results += bench_crypto(reps, inner=1000)
    # Schnorr ops cost milliseconds each; 3 reps keep the full suite
    # under a minute while the batch-vs-serial ratio stays stable.
    results += bench_crypto_batch(reps=3)
    results += bench_scheduler(reps, inner=10000)
    results += bench_simnet(reps, inner=1000)
    results += bench_transport(reps)
    return results
