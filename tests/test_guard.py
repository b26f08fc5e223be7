"""Synchrony guard: Δ-adjust types, monitor state machine, invariant, e2e."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

from repro.bench.common import make_config
from repro.check.invariants import check_guard_flagging
from repro.codec import decode, encode
from repro.config import ProtocolConfig
from repro.consensus.validators import ValidatorSet
from repro.core.protocol import AlterBFTReplica
from repro.crypto.keystore import build_cluster_keys
from repro.errors import VerificationError
from repro.guard.monitor import MAX_RUNG, STABLE_WINDOW, CommitRecord
from repro.runner.cluster import build_cluster, check_safety
from repro.runner.registry import attach_subsystems
from repro.types.certificates import Certificate, DeltaAdjust
from repro.types.messages import DeltaAdjustCertMsg, DeltaAdjustMsg
from tests.conftest import FakeContext

DELTA = 0.005
VALIDATORS = ValidatorSet.synchronous(3, 1)


def guarded_replica(replica_id=0, n=3, f=1, **overrides):
    """An AlterBFT replica with a monitor attached, on a FakeContext."""
    signers = build_cluster_keys("hashsig", n)
    pconf = ProtocolConfig(n=n, f=f, delta=DELTA, guard_enabled=True, **overrides)
    replica = AlterBFTReplica(
        replica_id, ValidatorSet.synchronous(n, f), pconf, signers[replica_id]
    )
    attach_subsystems(replica)
    ctx = FakeContext(node_id=replica_id, n=n)
    ctx.bind_replica(replica)
    return replica, ctx, signers


class TestDeltaAdjustTypes:
    def test_create_verify_roundtrip(self):
        signers = build_cluster_keys("hashsig", 3)
        adjust = DeltaAdjust.create(signers[0], "alterbft", seq=0, rung=2)
        assert adjust.verify(signers[1])
        assert decode(encode(adjust)) == adjust

    def test_tampered_adjust_rejected(self):
        signers = build_cluster_keys("hashsig", 3)
        adjust = DeltaAdjust.create(signers[0], "alterbft", seq=0, rung=2)
        assert not dataclasses.replace(adjust, rung=3).verify(signers[1])
        assert not dataclasses.replace(adjust, seq=1).verify(signers[1])

    def test_certificate_from_quorum_verifies(self):
        signers = build_cluster_keys("hashsig", 3)
        adjusts = tuple(
            DeltaAdjust.create(signers[i], "alterbft", seq=0, rung=1) for i in (0, 2)
        )
        cert = Certificate.assemble(adjusts, signers[0])
        assert cert.verify(signers[1], VALIDATORS)
        assert decode(encode(cert)) == cert

    def test_certificate_below_quorum_rejected(self):
        signers = build_cluster_keys("hashsig", 3)
        cert = Certificate.assemble(
            (DeltaAdjust.create(signers[0], "alterbft", seq=0, rung=1),),
            signers[0],
        )
        assert not cert.verify(signers[1], VALIDATORS)

    def test_duplicate_proposer_rejected(self):
        signers = build_cluster_keys("hashsig", 3)
        adjust = DeltaAdjust.create(signers[0], "alterbft", seq=0, rung=1)
        # A bitmap cannot name proposer 0 twice; naming a second proposer
        # who never signed is the nearest forgery.
        cert = dataclasses.replace(Certificate.assemble((adjust,), signers[0]), signer_bits=0b11)
        assert not cert.verify(signers[1], VALIDATORS)

    def test_divergent_adjusts_cannot_aggregate(self):
        signers = build_cluster_keys("hashsig", 3)
        with pytest.raises(VerificationError):
            Certificate.assemble(
                (
                    DeltaAdjust.create(signers[0], "alterbft", seq=0, rung=1),
                    DeltaAdjust.create(signers[1], "alterbft", seq=0, rung=2),
                ),
                signers[0],
            )


class TestMonitorMeasurement:
    def test_large_messages_ignored(self):
        replica, _, _ = guarded_replica()
        replica.subsystems["guard"].on_network_delay(1, "payload", size=100_000, latency=1.0)
        assert replica.subsystems["guard"].samples_seen == 0
        assert replica.subsystems["guard"].violation_count == 0

    def test_within_bound_is_not_a_violation(self):
        replica, _, _ = guarded_replica()
        replica.subsystems["guard"].on_network_delay(1, "m", size=100, latency=DELTA * 0.5)
        assert replica.subsystems["guard"].samples_seen == 1
        assert replica.subsystems["guard"].violation_count == 0
        assert not replica.subsystems["guard"].suspected

    def test_violation_enters_suspicion(self):
        replica, ctx, _ = guarded_replica()
        ctx.advance(1.0)
        replica.subsystems["guard"].on_network_delay(1, "m", size=100, latency=DELTA * 2)
        assert replica.subsystems["guard"].violation_count == 1
        assert replica.subsystems["guard"].suspected
        assert replica.subsystems["guard"].last_violation_at == pytest.approx(1.0)

    def test_suspicion_clears_after_stable_window(self):
        replica, ctx, _ = guarded_replica()
        guard = replica.subsystems["guard"]
        guard.on_network_delay(1, "m", size=100, latency=DELTA * 2)
        ctx.advance(STABLE_WINDOW + 0.01)
        guard._maintain(ctx.now)
        assert not guard.suspected

    def test_delta_at_walks_the_install_history(self):
        replica, _, _ = guarded_replica()
        guard = replica.subsystems["guard"]
        guard.delta_history = [(0.0, DELTA), (2.0, 4 * DELTA), (3.0, DELTA)]
        assert guard.delta_at(1.0) == pytest.approx(DELTA)
        assert guard.delta_at(2.0) == pytest.approx(4 * DELTA)
        assert guard.delta_at(2.5) == pytest.approx(4 * DELTA)
        assert guard.delta_at(3.5) == pytest.approx(DELTA)

    def test_ladder_and_timeout_scale(self):
        replica, _, signers = guarded_replica()
        guard = replica.subsystems["guard"]
        assert guard.ladder(0) == pytest.approx(DELTA)
        assert replica.delta_scale == 1.0
        guard.pending_cert = Certificate.assemble(
            (DeltaAdjust.create(signers[i], "alterbft", seq=0, rung=2) for i in (1, 2)),
            signers[0],
        )
        guard.on_epoch_enter(2)
        assert guard.effective_delta == pytest.approx(4 * DELTA)
        # The install pushes the multiplier onto the replica: its 2Δ
        # windows and its pacemaker read that one number.
        assert replica.delta_scale == pytest.approx(4.0)
        assert replica._delta() == guard.effective_delta
        assert replica._new_pacemaker().current_timeout() == pytest.approx(
            4.0 * replica.config.epoch_timeout
        )


class TestMonitorDegradation:
    def _stub_ledger(self, replica):
        flags = []
        replica.ledger.flag_at_risk = flags.append  # type: ignore[method-assign]
        return flags

    def test_commits_flagged_while_suspected(self):
        replica, ctx, _ = guarded_replica()
        flags = self._stub_ledger(replica)
        replica.subsystems["guard"].on_network_delay(1, "m", size=100, latency=DELTA * 2)
        replica.subsystems["guard"].on_committed([SimpleNamespace(height=3)])
        assert flags == [3]
        assert replica.subsystems["guard"].commit_records[-1].flagged
        assert replica.subsystems["guard"].at_risk_total == 1

    def test_clean_commits_unflagged(self):
        replica, _, _ = guarded_replica()
        flags = self._stub_ledger(replica)
        replica.subsystems["guard"].on_committed([SimpleNamespace(height=1)])
        assert flags == []
        assert not replica.subsystems["guard"].commit_records[-1].flagged

    def test_retroactive_flagging_of_recent_commits(self):
        replica, ctx, _ = guarded_replica()
        flags = self._stub_ledger(replica)
        guard = replica.subsystems["guard"]
        ctx.advance(1.0)
        guard.on_committed([SimpleNamespace(height=1)])  # recent: inside 4Δ
        ctx.advance(DELTA)
        guard.on_network_delay(1, "m", size=100, latency=DELTA * 2)
        assert guard.commit_records[0].flagged
        assert flags == [1]

    def test_old_commits_not_retro_flagged(self):
        replica, ctx, _ = guarded_replica()
        flags = self._stub_ledger(replica)
        guard = replica.subsystems["guard"]
        ctx.advance(1.0)
        guard.on_committed([SimpleNamespace(height=1)])
        ctx.advance(1.0)  # far outside the 4Δ retro window
        guard.on_network_delay(1, "m", size=100, latency=DELTA * 2)
        assert not guard.commit_records[0].flagged
        assert flags == []


class TestMonitorRecalibration:
    def test_quorum_of_adjusts_forms_certificate(self):
        replica, ctx, signers = guarded_replica(replica_id=0)
        guard = replica.subsystems["guard"]
        for peer in (1, 2):
            adjust = DeltaAdjust.create(signers[peer], "alterbft", seq=0, rung=1)
            guard.on_delta_adjust(peer, DeltaAdjustMsg(adjust=adjust))
        cert = guard.pending_cert
        assert cert is not None and cert.rung == 1 and cert.seq == 0
        assert ctx.sent_of_type(DeltaAdjustCertMsg)
        # A peer's signed violation claim is itself grounds for suspicion.
        assert guard.suspected

    def test_stale_and_off_ladder_adjusts_ignored(self):
        replica, _, signers = guarded_replica(replica_id=0)
        guard = replica.subsystems["guard"]
        stale = DeltaAdjust.create(signers[1], "alterbft", seq=5, rung=1)
        guard.on_delta_adjust(1, DeltaAdjustMsg(adjust=stale))
        high = DeltaAdjust.create(
            signers[1], "alterbft", seq=0, rung=MAX_RUNG + 1
        )
        guard.on_delta_adjust(1, DeltaAdjustMsg(adjust=high))
        assert guard.pending_cert is None
        assert not guard.adjusts.pending

    def test_forged_adjust_rejected(self):
        replica, _, signers = guarded_replica(replica_id=0)
        adjust = DeltaAdjust.create(signers[1], "alterbft", seq=0, rung=1)
        forged = dataclasses.replace(adjust, rung=2)
        with pytest.raises(VerificationError):
            replica.subsystems["guard"].on_delta_adjust(1, DeltaAdjustMsg(adjust=forged))

    def test_certificate_installs_at_epoch_boundary(self):
        replica, ctx, signers = guarded_replica(replica_id=0)
        guard = replica.subsystems["guard"]
        cert = Certificate.assemble(
            (DeltaAdjust.create(signers[i], "alterbft", seq=0, rung=2) for i in (1, 2)),
            signers[0],
        )
        ctx.advance(1.0)
        guard.on_delta_adjust_cert(1, DeltaAdjustCertMsg(cert=cert))
        assert guard.pending_cert is cert
        assert guard.rung == 0  # not yet: installs are epoch-atomic
        guard.on_epoch_enter(2)
        assert guard.rung == 2
        assert guard.installs == 1
        assert guard.effective_delta == pytest.approx(4 * DELTA)
        assert guard.delta_history[-1] == (1.0, pytest.approx(4 * DELTA))
        assert guard.pending_cert is None

    def test_invalid_certificate_rejected(self):
        replica, _, signers = guarded_replica(replica_id=0)
        cert = Certificate.assemble(
            (DeltaAdjust.create(signers[1], "alterbft", seq=0, rung=1),),
            signers[0],
        )
        with pytest.raises(VerificationError):
            replica.subsystems["guard"].on_delta_adjust_cert(1, DeltaAdjustCertMsg(cert=cert))


class TestGuardFlaggingInvariant:
    """check_guard_flagging over fabricated monitor state."""

    WINDOW = (1.5, 3.0)
    GRACE = 0.1

    def _cluster(self, records, history=((0.0, DELTA),)):
        history = list(history)

        def delta_at(time):
            current = history[0][1]
            for at, delta in history:
                if at > time:
                    break
                current = delta
            return current

        guard = SimpleNamespace(
            delta_history=history, delta_at=delta_at, commit_records=list(records)
        )
        replica = SimpleNamespace(replica_id=0, subsystems={"guard": guard})
        return SimpleNamespace(replicas=[replica], honest_ids={0})

    def _check(self, cluster):
        return check_guard_flagging(
            cluster, violation_window=self.WINDOW, grace=self.GRACE, safe_factor=3.0
        )

    def test_no_monitors_is_a_violation(self):
        cluster = self._cluster([])
        cluster.replicas[0].subsystems = {}
        assert not self._check(cluster).ok

    def test_flagged_commits_pass(self):
        cluster = self._cluster([CommitRecord(2.0, 5, flagged=True)])
        result = self._check(cluster)
        assert result.ok and "1 in-window" in result.detail

    def test_silent_commit_fails(self):
        result = self._check(self._cluster([CommitRecord(2.0, 5, flagged=False)]))
        assert not result.ok
        assert "height 5" in result.detail

    def test_recertified_delta_excuses_unflagged_commit(self):
        cluster = self._cluster(
            [CommitRecord(2.0, 5, flagged=False)],
            history=[(0.0, DELTA), (1.8, 4 * DELTA)],
        )
        assert self._check(cluster).ok

    def test_commits_outside_window_and_grace_not_examined(self):
        records = [
            CommitRecord(1.0, 1, flagged=False),  # before the window
            CommitRecord(1.55, 2, flagged=False),  # inside the grace period
            CommitRecord(3.5, 3, flagged=False),  # after the window
        ]
        result = self._check(self._cluster(records))
        assert result.ok and "vacuously" in result.detail


class TestGuardEndToEnd:
    def test_slow_link_lifecycle(self):
        """Detection → at-risk flags → certified escalation → shrink."""
        config = make_config(
            "alterbft",
            f=1,
            rate=300.0,
            duration=4.5,
            seed=3,
            faults=((1, "slow-link@1.5:3.0"),),
            guard_enabled=True,
            guard_probe_interval=0.02,
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run()
        assert check_safety(cluster.replicas, cluster.honest_ids)
        witness = cluster.replicas[0]
        guard = witness.subsystems["guard"]
        assert guard is not None
        assert guard.violation_count > 0
        assert witness.ledger.at_risk_count > 0
        assert guard.installs >= 2  # up the ladder, then back down
        assert guard.rung == 0  # shrunk back after the link healed
        assert not guard.suspected
        result = check_guard_flagging(
            cluster, violation_window=(1.5, 3.0), grace=0.1, safe_factor=3.0
        )
        assert result.ok, result.detail

    def test_guard_off_matches_golden_fingerprint(self):
        """With guard_enabled=False (the default) the whole subsystem —
        config knobs, replica hooks, network observer slots — must not
        perturb the golden seeded run by a single byte."""
        from tests.test_perf_hotpath import GOLDEN_FINGERPRINT

        config = make_config("alterbft", f=1, rate=500.0, duration=1.5, seed=7)
        assert config.protocol_config.guard_enabled is False
        cluster = build_cluster(config)
        assert all(r.subsystems.get("guard") is None for r in cluster.replicas)
        cluster.start()
        cluster.run()
        assert cluster.fingerprint() == GOLDEN_FINGERPRINT
