"""Crash recovery: WAL, checkpoints, catchup, rejoin (repro.recovery)."""

from __future__ import annotations

import pytest

from repro.bench.common import make_config
from repro.check.invariants import RECOVERY, check_recovery
from repro.crypto.keystore import build_cluster_keys
from repro.recovery import FileWal, MemoryWal, WalEpochRecord
from repro.runner.cluster import build_cluster, check_safety
from repro.types.certificates import Vote, genesis_qc
from repro.types.messages import (
    BlockRangeRequestMsg,
    BlockRangeResponseMsg,
    SnapshotRequestMsg,
    SnapshotResponseMsg,
    StatusResponseMsg,
)
from tests.test_codec import UNTYPED_BEFORE

SIGNERS = build_cluster_keys("hashsig", 3)


def _vote(epoch=1, height=1, block=b"\x11" * 32, voter=0):
    return Vote.create(SIGNERS[voter], "alterbft", epoch, height, block)


def _records():
    return [
        _vote(),
        _vote(epoch=1, height=2, block=b"\x22" * 32),
        genesis_qc("alterbft", b"\x00" * 32),
        WalEpochRecord(epoch=2, rank_epoch=1, rank_height=2),
    ]


# ---------------------------------------------------------------------------
# WAL round-trips
# ---------------------------------------------------------------------------


class TestMemoryWal:
    def test_round_trip(self):
        wal = MemoryWal()
        for record in _records():
            wal.append(record)
        assert wal.replay() == _records()
        assert len(wal) == 4

    def test_replay_is_stable(self):
        wal = MemoryWal()
        wal.append(_vote())
        assert wal.replay() == wal.replay()


class TestFileWal:
    def test_round_trip_across_reopen(self, tmp_path):
        path = tmp_path / "replica.wal"
        wal = FileWal(str(path))
        for record in _records():
            wal.append(record)
        wal.close()
        reopened = FileWal(str(path))
        assert reopened.replay() == _records()
        # Appending after reopen preserves the earlier records.
        extra = _vote(epoch=2, height=3, block=b"\x33" * 32)
        reopened.append(extra)
        reopened.close()
        assert FileWal(str(path)).replay() == _records() + [extra]

    def test_torn_final_frame_is_dropped(self, tmp_path):
        path = tmp_path / "replica.wal"
        wal = FileWal(str(path))
        for record in _records():
            wal.append(record)
        wal.close()
        # Simulate a crash mid-write: truncate inside the last frame.
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        assert FileWal(str(path)).replay() == _records()[:-1]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "fresh.wal"
        assert FileWal(str(path)).replay() == []

    @pytest.mark.parametrize("garbage", UNTYPED_BEFORE)
    def test_corrupt_complete_record_ends_replay(self, tmp_path, garbage):
        """A whole, well-framed record of garbage is a corrupt tail too."""
        path = tmp_path / "replica.wal"
        wal = FileWal(str(path))
        for record in _records():
            wal.append(record)
        wal.close()
        with open(path, "ab") as fh:
            fh.write(len(garbage).to_bytes(4, "big") + garbage)
        assert FileWal(str(path)).replay() == _records()


# ---------------------------------------------------------------------------
# End-to-end rejoin
# ---------------------------------------------------------------------------


def _crash_recover_config(protocol="alterbft", seed=11, f=2, t_down=1.0, t_up=3.0,
                          interval=3, duration=6.0, rate=400.0):
    return make_config(
        protocol,
        f=f,
        rate=rate,
        duration=duration,
        seed=seed,
        faults=((1, f"crash-recover@{t_down}:{t_up}"),),
        checkpoint_interval=interval,
    )


def _run(config):
    cluster = build_cluster(config)
    cluster.start()
    cluster.run()
    return cluster


class TestRejoin:
    def test_rejoiner_converges_to_honest_ledger(self):
        cluster = _run(_crash_recover_config())
        joiner = cluster.replicas[1]
        manager = joiner.subsystems["recovery"]
        assert manager.restarts == 1
        assert manager.caught_up_at is not None and manager.caught_up_at >= 3.0
        honest = [r for r in cluster.replicas if r.replica_id in cluster.honest_ids]
        chain = joiner.ledger.all_hashes()
        assert chain, "rejoiner committed nothing"
        for replica in honest:
            assert chain == replica.ledger.all_hashes()
        assert check_safety(cluster.replicas, cluster.honest_ids | {1})

    def test_rejoin_passes_recovery_invariant(self):
        cluster = _run(_crash_recover_config(seed=7))
        verdict = check_recovery(cluster)
        assert verdict.name == RECOVERY
        assert verdict.ok, verdict.detail

    def test_sync_hotstuff_rejoins_too(self):
        cluster = _run(_crash_recover_config(protocol="sync-hotstuff", f=1, rate=300.0))
        joiner = cluster.replicas[1]
        assert joiner.subsystems["recovery"].caught_up_at is not None
        assert check_safety(cluster.replicas, cluster.honest_ids | {1})
        lag = max(
            r.ledger.height
            for r in cluster.replicas
            if r.replica_id in cluster.honest_ids
        ) - joiner.ledger.height
        assert lag <= 3


@pytest.mark.parametrize(
    "seed,t_down,t_up",
    [(3, 0.8, 2.2), (5, 1.5, 2.5), (9, 2.0, 4.0)],
)
def test_no_double_vote_across_restart(seed, t_down, t_up):
    """Property: restart never contradicts a journaled pre-crash vote."""
    cluster = _run(
        _crash_recover_config(
            seed=seed, f=1, t_down=t_down, t_up=t_up, duration=t_up + 2.0, rate=300.0
        )
    )
    joiner = cluster.replicas[1]
    voted = {}
    for record in joiner.subsystems["recovery"].wal.replay():
        if not isinstance(record, Vote):
            continue
        key = (record.epoch, record.height)
        assert voted.setdefault(key, record.block_hash) == record.block_hash, (
            f"double vote at {key}"
        )
    assert check_safety(cluster.replicas, cluster.honest_ids | {1})
    assert check_recovery(cluster).ok


# ---------------------------------------------------------------------------
# Byzantine catchup providers
# ---------------------------------------------------------------------------


class TestByzantineProviders:
    def test_withholding_provider_is_rotated_past(self):
        """The first provider the joiner asks silently withholds snapshots
        and ranges: catchup must retry onto an alternate provider and still
        complete.  Withholding whoever is asked first, not a fixed replica,
        makes the retry certain whatever order the status replies took."""
        config = _crash_recover_config(seed=11)
        cluster = build_cluster(config)
        withholder = []

        def withhold_first_provider(src, dst, msg, size):
            if src == 1 and isinstance(msg, (SnapshotRequestMsg, BlockRangeRequestMsg)):
                if not withholder:
                    withholder.append(dst)
                return True
            return not (
                withholder
                and src == withholder[0]
                and isinstance(msg, (SnapshotResponseMsg, BlockRangeResponseMsg))
            )

        cluster.network.add_filter(withhold_first_provider)
        cluster.start()
        cluster.run()
        joiner = cluster.replicas[1]
        manager = joiner.subsystems["recovery"]
        assert withholder
        assert manager.caught_up_at is not None
        assert manager.fetch_retries >= 1
        assert check_recovery(cluster).ok

    def test_total_withholding_is_reported_as_stall(self):
        """Negative control: when *every* catchup response is withheld the
        harness must report the stall, not silently pass."""
        config = _crash_recover_config(seed=11)
        cluster = build_cluster(config)
        cluster.network.add_filter(
            lambda src, dst, msg, size: not (
                dst == 1
                and isinstance(
                    msg,
                    (StatusResponseMsg, SnapshotResponseMsg, BlockRangeResponseMsg),
                )
            )
        )
        cluster.start()
        cluster.run()
        manager = cluster.replicas[1].subsystems["recovery"]
        assert manager.caught_up_at is None
        assert manager.fetch_retries > 0
        verdict = check_recovery(cluster)
        assert not verdict.ok
        assert "stalled" in verdict.detail


# ---------------------------------------------------------------------------
# Checkpoints and pruning in steady state
# ---------------------------------------------------------------------------


class TestCheckpoints:
    def test_steady_state_checkpointing_prunes_stores(self):
        config = make_config(
            "alterbft", f=1, rate=400.0, duration=4.0, seed=5, checkpoint_interval=3
        )
        cluster = _run(config)
        assert check_safety(cluster.replicas, cluster.honest_ids)
        for replica in cluster.replicas:
            manager = replica.subsystems["recovery"]
            assert manager is not None
            cert = manager.latest_cert
            assert cert is not None and cert.height > 0
            assert cert.height % 3 == 0
            # The store was pruned: nothing survives below the bound the
            # manager applied (its checkpoint capped by its own head).
            bound = min(cert.height, replica.ledger.height)
            floor = min(h.height for h in replica.store._headers.values())
            assert floor >= bound
            assert not replica.store.has_header(replica.store.genesis.block_hash)

    def test_checkpoint_certificates_verify(self):
        config = make_config(
            "alterbft", f=1, rate=400.0, duration=3.0, seed=5, checkpoint_interval=4
        )
        cluster = _run(config)
        replica = cluster.replicas[0]
        cert = replica.subsystems["recovery"].latest_cert
        assert cert is not None
        assert cert.verify(replica.signer, replica.validators)
        assert cert.state_digest == replica.ledger.state_digest(cert.height)


# ---------------------------------------------------------------------------
# Observational inertness
# ---------------------------------------------------------------------------


def test_recovery_attachments_are_observationally_inert():
    """A WAL plus an idle RecoveryManager (checkpointing off) on every
    replica must not perturb the golden seeded run by a single byte."""
    from repro.runner.registry import attach_subsystems
    from tests.test_perf_hotpath import GOLDEN_FINGERPRINT

    cfg = make_config("alterbft", f=1, rate=500.0, duration=1.5, seed=7)
    cluster = build_cluster(cfg)
    for replica in cluster.replicas:
        assert not replica.subsystems
        attach_subsystems(replica, restartable=True)
        assert replica.subsystems["recovery"].interval == 0
    cluster.start()
    cluster.run()
    assert cluster.fingerprint() == GOLDEN_FINGERPRINT
    # The WAL did its job silently: votes were journaled all along.
    assert all(len(r.subsystems["recovery"].wal) > 0 for r in cluster.replicas)


# ---------------------------------------------------------------------------
# Known composed defects, recorded (not fixed) while sizing the PR 19 fence.
# Neither schedule is in the check grid, which runs one feature per family;
# the fixing PR flips each xfail.
# ---------------------------------------------------------------------------

REJOIN_UNDER_SLOW_LINK = ((1, "crash-recover@1.0:2.0"), (3, "slow-link@0.6:1.6"))


@pytest.mark.xfail(strict=True, reason="a rejoiner's Δ ladder diverges for good")
def test_rejoiner_ends_on_the_clusters_delta():
    """The cluster installs rung 2, replica 1 crashes, the others shrink
    back (``installs`` ends 2, 1, 2, 2, 2).  Every later adjustment and
    certificate carries ``seq != installs`` at replica 1 and is dropped, so
    it runs Δ = 20 ms against the cluster's 5 ms for the rest of the run —
    and in the mirrored schedule it would keep a *smaller* Δ than the
    cluster, which is the unsafe direction."""
    cluster = _run(
        make_config(
            "alterbft",
            f=2,
            rate=500.0,
            duration=3.0,
            seed=7,
            faults=REJOIN_UNDER_SLOW_LINK,
            guard_enabled=True,
        )
    )
    deltas = [replica.subsystems["guard"].effective_delta for replica in cluster.replicas]
    assert len(set(deltas)) == 1, deltas


def _rejoin_with_every_subsystem_on():
    return _run(
        make_config(
            "alterbft",
            f=2,
            rate=500.0,
            duration=4.0,
            seed=10,
            faults=REJOIN_UNDER_SLOW_LINK,
            guard_enabled=True,
            checkpoint_interval=4,
            dissemination=True,
            pipeline_depth=2,
        )
    )


def test_rejoiner_catches_up_with_every_subsystem_on():
    """Replica 1 leaves its snapshot at height 44 with a commit window
    parked on a header every peer has already pruned.  The fetch asks for
    the chain above its ledger, a peer serves the pruned prefix from its
    own ledger, and catch-up completes (at 57)."""
    cluster = _rejoin_with_every_subsystem_on()
    assert cluster.replicas[1].subsystems["recovery"].caught_up_at is not None


@pytest.mark.xfail(
    strict=True,
    reason="a payload pull is served from the store only: the rejoiner's next block "
    "has its payload below every peer's floor, where only their ledgers hold it",
)
def test_rejoiner_keeps_up_with_every_subsystem_on():
    """After catch-up, replica 1 cannot vote for height 58: its payload's
    shares and blocks are pruned at every peer (floors at 196), so its
    payload requests go unanswered and it ends at 57 against 198."""
    cluster = _rejoin_with_every_subsystem_on()
    heights = [replica.ledger.height for replica in cluster.replicas]
    assert heights[1] >= max(heights) - 10, heights
