"""End-to-end tests for chunked, erasure-coded payload dissemination.

Four contracts, mirroring the subsystem's acceptance criteria:

* **Inertness** — with ``ProtocolConfig.dissemination`` off (the
  default) the payload path is byte-identical to the blob protocol:
  the seeded golden trace fingerprint from ``test_perf_hotpath`` must
  not move.
* **Liveness & safety when on** — a chunked cluster commits, every
  replica votes only after verified reconstruction, and all consensus
  invariants hold (alone and composed with pipelining).
* **Fault recovery** — a leader corrupting one victim's share is caught
  by the Merkle check and healed by pulling from *peers* without an
  epoch change; a leader withholding shares below the reconstruction
  threshold forces an epoch change (and, as a negative control, stalls
  the chain completely when epoch change is disabled).
* **Egress flattening** — at E5 scale (n = 9, f = 4) dissemination cuts
  the leader's share of wire bytes from ~0.31 to ≤ 0.20 and no single
  link carries more peak bytes than the blob baseline's leader links.

Then the hostile inputs — garbage that reconstructs, ill-typed chunk
messages, which the codec refuses — and the memory contract: a reconstructed payload holds the
mempool's transaction objects, one per transaction across the cluster.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.bench.common import make_config
from repro.check.invariants import check_all, install_certificate_log, violations
from repro.codec import decode, encode
from repro.crypto.erasure import encode_shares
from repro.crypto.merkle import MerkleTree
from repro.errors import CodecError, ConfigError
from repro.mempool import Mempool
from repro.runner.cluster import build_cluster
from repro.types.block import BlockHeader, BlockPayload
from repro.types.messages import ChunkRequestMsg, ChunkResponseMsg, ChunkShareMsg
from repro.types.transaction import make_transaction
from tests.test_codec import UNTYPED_BEFORE
from tests.test_perf_hotpath import GOLDEN_FINGERPRINT


def _run(config):
    cluster = build_cluster(config)
    install_certificate_log(cluster)
    cluster.start()
    cluster.run()
    return cluster


def _kinds(cluster) -> Counter:
    return cluster.trace.counters


def _honest_epochs(cluster):
    return [
        replica.epoch
        for replica in cluster.replicas
        if replica.replica_id in cluster.honest_ids
    ]


def _assert_invariants(cluster):
    results = check_all(cluster)
    assert not violations(results), [str(v) for v in violations(results)]


# -- inertness: off means byte-identical --------------------------------------


def test_dissemination_off_is_byte_identical_golden():
    """The golden seeded fingerprint must not move with the flag off —
    the subsystem is invisible until enabled."""
    cfg = make_config("alterbft", f=1, rate=500.0, duration=1.5, seed=7)
    assert not cfg.protocol_config.dissemination
    cluster = _run(cfg)
    for replica in cluster.replicas:
        assert replica.subsystems.get("dissem") is None
    assert cluster.fingerprint() == GOLDEN_FINGERPRINT


def test_dissemination_on_changes_the_trace():
    """Sanity for the golden test: the flag genuinely reroutes the
    payload path (otherwise inertness would be vacuous)."""
    cfg = make_config(
        "alterbft", f=1, rate=500.0, duration=1.5, seed=7, dissemination=True
    )
    cluster = _run(cfg)
    for replica in cluster.replicas:
        assert replica.subsystems.get("dissem") is not None
    assert cluster.fingerprint() != GOLDEN_FINGERPRINT


def test_dissemination_rejected_on_other_protocols():
    cfg = make_config("hotstuff", f=1, dissemination=True)
    with pytest.raises(ConfigError):
        cfg.validate()


# -- liveness & safety when on ------------------------------------------------


def test_chunked_cluster_commits_and_reconstructs():
    cfg = make_config(
        "alterbft", f=1, rate=500.0, duration=2.0, seed=7, dissemination=True
    )
    cluster = _run(cfg)
    assert cluster.collector.committed_blocks() > 0
    kinds = _kinds(cluster)
    assert kinds["dissem_encode"] > 0
    # Non-leader replicas vote only after verified reconstruction.
    assert kinds["dissem_reconstructed"] > 0
    assert kinds.get("dissem_decode_failed", 0) == 0
    assert kinds.get("dissem_mismatch", 0) == 0
    _assert_invariants(cluster)


#: Chunked payloads under a depth-4 pipeline (also a certified-chain
#: schedule in ``tests/test_check.py``).
CHUNKED_PIPELINED = make_config(
    "alterbft",
    f=1,
    rate=500.0,
    duration=2.0,
    seed=3,
    dissemination=True,
    pipeline_depth=4,
)


def test_chunked_composes_with_pipelining():
    cluster = _run(CHUNKED_PIPELINED)
    assert cluster.collector.committed_blocks() > 0
    assert _kinds(cluster)["dissem_reconstructed"] > 0
    _assert_invariants(cluster)


def test_chunked_replaces_payload_blob_on_the_wire():
    cfg = make_config(
        "alterbft",
        f=1,
        rate=500.0,
        duration=2.0,
        seed=7,
        dissemination=True,
    )
    cluster = _run(cfg)
    assert cluster.collector.committed_blocks() > 0
    class_bytes = cluster.wire.class_bytes
    assert class_bytes.get("ChunkShareMsg", 0) > 0
    # The blob broadcast is gone; PayloadMsg survives only as the
    # repair backstop, which a fault-free run never needs.
    assert class_bytes.get("PayloadMsg", 0) == 0


# -- fault recovery -----------------------------------------------------------


def test_corrupt_chunk_detected_and_healed_by_peer_pulls():
    """A leader bit-flips one victim's share: the Merkle check rejects
    it and the victim reconstructs from peers — no epoch change, no
    fallback to the blob repair path."""
    cfg = make_config(
        "alterbft",
        f=1,
        rate=500.0,
        duration=2.0,
        seed=7,
        dissemination=True,
        faults=((1, "corrupt_chunk"),),
    )
    cluster = _run(cfg)
    kinds = _kinds(cluster)
    assert kinds["chunk_corrupt"] > 0
    assert kinds["dissem_reconstructed"] > 0
    assert cluster.collector.committed_blocks() > 0
    # Gray fault: liveness without a leader change.
    assert kinds.get("epoch_change", 0) == 0
    assert kinds.get("payload_request", 0) == 0
    _assert_invariants(cluster)


def test_withhold_chunks_commits_via_epoch_change():
    """A leader shipping fewer than f + 1 shares starves reconstruction;
    the epoch times out and the next (honest) leader restores progress
    with zero invariant violations."""
    cfg = make_config(
        "alterbft",
        f=1,
        rate=500.0,
        duration=3.0,
        seed=7,
        dissemination=True,
        epoch_timeout=0.5,
        faults=((1, "withhold_chunks"),),
    )
    cluster = _run(cfg)
    kinds = _kinds(cluster)
    assert kinds["epoch_change"] > 0
    assert all(epoch >= 2 for epoch in _honest_epochs(cluster))
    assert cluster.collector.committed_blocks() > 0
    assert kinds["dissem_reconstructed"] > 0
    _assert_invariants(cluster)


def test_withhold_chunks_stalls_without_epoch_change():
    """Negative control: with epoch change effectively disabled, f
    shares are below the reconstruction threshold and the chain must
    stall — proving withholding is actually being exercised above."""
    cfg = make_config(
        "alterbft",
        f=1,
        rate=500.0,
        duration=3.0,
        seed=7,
        dissemination=True,
        epoch_timeout=60.0,
        faults=((1, "withhold_chunks"),),
    )
    cluster = _run(cfg)
    kinds = _kinds(cluster)
    assert kinds.get("dissem_reconstructed", 0) == 0
    assert kinds.get("epoch_change", 0) == 0
    # At most the boundary block from before the withholding leader's
    # epoch; no sustained progress.
    assert cluster.collector.committed_blocks() <= 1


def test_chunk_behaviors_require_dissemination():
    cfg = make_config(
        "alterbft", f=1, duration=1.5, faults=((1, "corrupt_chunk"),)
    )
    with pytest.raises(ConfigError):
        build_cluster(cfg)
    cfg = make_config(
        "alterbft", f=1, duration=1.5, faults=((1, "withhold_chunks"),)
    )
    with pytest.raises(ConfigError):
        build_cluster(cfg)


# -- egress flattening at E5 scale --------------------------------------------


def test_e5_leader_egress_share_flattened():
    """n = 9, f = 4: chunked dissemination cuts the leader's share of
    total wire bytes to ≤ 0.20 (blob baseline ~0.31) and no chunked
    link's total exceeds the blob baseline's heaviest leader link."""
    blob = _run(
        make_config(
            "alterbft",
            f=4,
            rate=1000.0,
            tx_size=512,
            duration=2.5,
            seed=5,
        )
    )
    chunked = _run(
        make_config(
            "alterbft",
            f=4,
            rate=1000.0,
            tx_size=512,
            duration=2.5,
            seed=5,
            dissemination=True,
        )
    )
    assert blob.collector.committed_blocks() > 0
    assert chunked.collector.committed_blocks() > 0
    blob_share = blob.wire.leader_egress_share()
    chunked_share = chunked.wire.leader_egress_share()
    assert blob_share > 0.25, blob_share
    assert chunked_share <= 0.20, chunked_share
    blob_peak = max(blob.wire.link_bytes.values())
    chunked_peak = max(chunked.wire.link_bytes.values())
    assert chunked_peak <= blob_peak


# -- hostile bytes through reconstruction --------------------------------------


def _dissem_cluster():
    cfg = make_config("alterbft", f=1, rate=100.0, duration=2.0, seed=3, dissemination=True)
    cluster = build_cluster(cfg)
    cluster.start()
    return cluster


def _reconstruct(cluster, data, committed=None):
    """Hand replica 2 ``k`` shares of ``data`` under a header committing to
    the payload ``committed`` (None: to nothing) and let it reconstruct.
    Returns the payload it stored, if any, and the run's counters."""
    replica = cluster.replicas[2]
    manager = replica.subsystems["dissem"]
    header = BlockHeader(
        epoch=1,
        height=1,
        parent=replica.ledger.head.block_hash,
        payload_root=b"\x55" * 32 if committed is None else committed.merkle_root,
        payload_size=len(data),
        payload_count=1 if committed is None else len(committed),
        proposer=1,
    )
    replica.store.add_header(header)
    state = manager._state_for(header.block_hash, header.epoch, header.height)
    shares = encode_shares(data, manager.k, manager.n)
    state.shares.update({index: shares[index] for index in range(manager.k)})
    manager._maybe_reconstruct(state)
    assert state.done
    if not replica.store.has_payload(header.block_hash):
        return None, _kinds(cluster)
    return replica.store.payload(header.block_hash), _kinds(cluster)


@pytest.mark.parametrize(
    "garbage",
    UNTYPED_BEFORE + [pytest.param(b"\x03\x02", id="not-a-payload")],
)
def test_erasure_coded_garbage_is_a_decode_failure_not_a_crash(garbage):
    """A Byzantine leader's shares may reconstruct to anything at all."""
    stored, kinds = _reconstruct(_dissem_cluster(), garbage)
    assert stored is None
    assert kinds["dissem_decode_failed"] == 1


# -- one copy of each transaction ----------------------------------------------


def test_reconstructed_payloads_share_the_mempools_transactions():
    """n = 9: every replica but the proposer rebuilds each payload from
    shares, and the pools already hold the workload's one object per
    transaction.  The ledgers end up referencing those objects, one per
    transaction, and nothing observable moves."""
    cfg = make_config(
        "alterbft",
        f=4,
        rate=1000,
        tx_size=512,
        duration=2.0,
        warmup=0.5,
        seed=5,
        dissemination=True,
    )
    cluster = _run(cfg)
    committed = [
        tx
        for replica in cluster.replicas
        for height in range(1, replica.ledger.height + 1)
        for tx in replica.ledger.block_at(height).payload.transactions
    ]
    keys = {(tx.client_id, tx.seq) for tx in committed}
    assert len(committed) > 5 * len(keys) > 0
    assert len({id(tx) for tx in committed}) == len(keys)
    # Pinned: which objects a payload holds must not move the run.
    assert cluster.fingerprint() == (
        "a82caf2229048a196eee511f0ea690f13575a4eab40ee4f7ac5f8f0aff82ede3"
    )


def _decoded(tx):
    copy = decode(encode(tx))
    assert copy == tx and copy is not tx
    return copy


def test_resolve_returns_the_held_object_for_equal_bytes():
    pool = Mempool()
    inflight, pending = make_transaction(1, 0, 0.5, 32), make_transaction(1, 1, 0.5, 32)
    pool.add(inflight)
    pool.add(pending)
    assert pool.take_batch(1, 1 << 20) == (inflight,)
    unknown = make_transaction(2, 0, 0.5, 32)
    resolved = pool.resolve(tuple(map(_decoded, (pending, inflight, unknown))))
    assert resolved[0] is pending and resolved[1] is inflight
    assert resolved[2] == unknown and resolved[2] is not unknown


def test_resolve_keeps_other_bytes_and_anything_else_as_given():
    pool = Mempool()
    held = make_transaction(1, 0, 0.5, 32)
    pool.add(held)
    other = make_transaction(1, 0, 0.75, 32)  # same key, other bytes
    assert pool.resolve((other,))[0] is other
    # Anything but a tuple of transactions never reaches resolve: a
    # reconstructed payload carrying it does not decode.
    for junk in (5, None, b"xx", [held], (held, 7, b"x", (1, 0))):
        with pytest.raises(CodecError):
            decode(encode(BlockPayload(transactions=junk)))


#: A transaction replica 2's pool holds in the reconstruction tests.
HELD = make_transaction(11, 0, 0.5, 64)


@pytest.mark.parametrize("committed_to", ["decoded", "held"])
def test_same_key_other_bytes_checks_against_the_header_as_before(committed_to):
    """A transaction whose key the pool holds with other bytes stays as
    decoded: the payload matches the header iff the decoded bytes do."""
    cluster = _dissem_cluster()
    cluster.replicas[2].mempool.add(HELD)
    sent = BlockPayload(transactions=(make_transaction(11, 0, 0.25, 64),))
    committed = sent if committed_to == "decoded" else BlockPayload(transactions=(HELD,))
    stored, kinds = _reconstruct(cluster, encode(sent), committed)
    if committed_to == "decoded":
        assert stored.transactions == sent.transactions
        assert stored.transactions[0] is not HELD
        assert kinds["dissem_mismatch"] == 0
    else:
        assert stored is None
        assert kinds["dissem_mismatch"] == 1


@pytest.mark.parametrize(
    "junk",
    [5, None, b"xx", (1, b"two"), (HELD, 7)],
    ids=["int", "none", "bytes", "tuple-of-junk", "held-then-int"],
)
def test_junk_transactions_still_end_in_a_mismatch(junk):
    """Junk where the transactions belong ends before the header check
    now: the reconstructed bytes are a ``CodecError``, a decode failure."""
    cluster = _dissem_cluster()
    cluster.replicas[2].mempool.add(HELD)
    stored, kinds = _reconstruct(cluster, encode(BlockPayload(transactions=junk)))
    assert stored is None
    assert kinds["dissem_decode_failed"] == 1
    assert kinds["dissem_reconstructed"] == 0 and kinds["dissem_mismatch"] == 0


# -- ill-typed chunk messages ---------------------------------------------------


def _chunk_messages(manager, block_hash):
    shares = [bytes([i]) * 8 for i in range(manager.n)]
    tree = MerkleTree(shares)
    common = dict(
        epoch=1, height=1, block_hash=block_hash, chunk_root=tree.root, k=manager.k, n=manager.n
    )
    share = ChunkShareMsg(index=0, share=shares[0], proof=tree.prove(0), **common)
    response = ChunkResponseMsg(
        indexes=(0,), shares=(shares[0],), proof=tree.prove_multi([0]), **common
    )
    request = ChunkRequestMsg(sender=3, epoch=1, height=1, block_hash=block_hash, have=())
    return share, request, response


@pytest.mark.parametrize(
    "which, field, value",
    [
        ("request", "have", 5),
        ("request", "have", ([1],)),
        ("response", "indexes", 5),
        ("response", "proof", None),
        ("share", "proof", None),
        ("share", "index", "0"),
    ],
)
def test_ill_typed_chunk_fields_are_refused_not_raised(which, field, value):
    """The codec refuses each at decode; the well-typed original decodes."""
    cluster = _dissem_cluster()
    manager = cluster.replicas[2].subsystems["dissem"]
    share, request, response = _chunk_messages(manager, b"\x42" * 32)
    msg = {"share": share, "request": request, "response": response}[which]
    assert decode(encode(msg)) == msg
    with pytest.raises(CodecError):
        decode(encode(dataclasses.replace(msg, **{field: value})))
