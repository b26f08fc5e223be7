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
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.bench.common import make_config
from repro.check.invariants import check_all, install_certificate_log, violations
from repro.errors import ConfigError
from repro.runner.cluster import build_cluster
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


@pytest.mark.parametrize(
    "garbage",
    UNTYPED_BEFORE + [pytest.param(b"\x03\x02", id="not-a-payload")],
)
def test_erasure_coded_garbage_is_a_decode_failure_not_a_crash(garbage):
    """A Byzantine leader's shares may reconstruct to anything at all."""
    from repro.crypto.erasure import encode_shares
    from repro.types.block import BlockHeader

    cfg = make_config("alterbft", f=1, rate=100.0, duration=2.0, seed=3, dissemination=True)
    cluster = build_cluster(cfg)
    cluster.start()
    replica = cluster.replicas[2]
    manager = replica.subsystems["dissem"]
    header = BlockHeader(
        epoch=1,
        height=1,
        parent=replica.ledger.head.block_hash,
        payload_root=b"\x55" * 32,
        payload_size=len(garbage),
        payload_count=1,
        proposer=1,
    )
    replica.store.add_header(header)
    state = manager._state_for(header.block_hash, header.epoch, header.height)
    shares = encode_shares(garbage, manager.k, manager.n)
    state.shares.update({index: shares[index] for index in range(manager.k)})
    manager._maybe_reconstruct(state)
    assert state.done
    assert not replica.store.has_payload(header.block_hash)
    assert _kinds(cluster)["dissem_decode_failed"] == 1
