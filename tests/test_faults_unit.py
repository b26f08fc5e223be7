"""Fault behavior parsing and context wrappers."""

from __future__ import annotations

import pytest

from repro.config import ProtocolConfig
from repro.consensus.validators import ValidatorSet
from repro.core.protocol import AlterBFTReplica
from repro.errors import ConfigError
from repro.faults.behaviors import apply_behavior, parse_behavior
from repro.net.delay import UniformDelayModel
from repro.net.simnet import SimNetwork
from repro.sim.rng import RngFactory
from repro.sim.scheduler import Scheduler


class TestParsing:
    def test_plain_name(self):
        assert parse_behavior("silent") == ("silent", None)

    def test_with_time(self):
        assert parse_behavior("crash@2.5") == ("crash", 2.5)

    def test_bad_time(self):
        with pytest.raises(ConfigError):
            parse_behavior("crash@soon")

    def test_time_range(self):
        assert parse_behavior("crash-recover@2.0:5.0") == ("crash-recover", (2.0, 5.0))

    def test_bad_range_text(self):
        with pytest.raises(ConfigError):
            parse_behavior("crash-recover@soon:later")

    def test_range_start_negative(self):
        with pytest.raises(ConfigError):
            parse_behavior("crash-recover@-1.0:2.0")

    def test_range_end_not_after_start(self):
        with pytest.raises(ConfigError):
            parse_behavior("crash-recover@3.0:3.0")

    def test_crash_rejects_range(self):
        scheduler = Scheduler()
        network = SimNetwork(scheduler, UniformDelayModel(0, 0.001), RngFactory(1))
        with pytest.raises(ConfigError):
            apply_behavior("crash@1.0:2.0", _replica(), network, scheduler)

    def test_crash_recover_requires_range(self):
        scheduler = Scheduler()
        network = SimNetwork(scheduler, UniformDelayModel(0, 0.001), RngFactory(1))
        with pytest.raises(ConfigError):
            apply_behavior("crash-recover@1.0", _replica(), network, scheduler)

    def test_unknown_behavior(self):
        scheduler = Scheduler()
        network = SimNetwork(scheduler, UniformDelayModel(0, 0.001), RngFactory(1))
        replica = _replica()
        with pytest.raises(ConfigError):
            apply_behavior("teleport", replica, network, scheduler)


def _replica(replica_id=0):
    signers = __import__("repro.crypto.keystore", fromlist=["build_cluster_keys"]).build_cluster_keys(
        "hashsig", 3
    )
    return AlterBFTReplica(
        replica_id,
        ValidatorSet.synchronous(3, 1),
        ProtocolConfig(n=3, f=1),
        signers[replica_id],
    )


class TestCrash:
    def test_immediate_crash(self):
        scheduler = Scheduler()
        network = SimNetwork(scheduler, UniformDelayModel(0, 0.001), RngFactory(1))
        replica = _replica()
        apply_behavior("crash", replica, network, scheduler)
        assert replica.crashed

    def test_delayed_crash(self):
        scheduler = Scheduler()
        network = SimNetwork(scheduler, UniformDelayModel(0, 0.001), RngFactory(1))
        replica = _replica()
        apply_behavior("crash@1.0", replica, network, scheduler)
        assert not replica.crashed
        scheduler.run(until=2.0)
        assert replica.crashed


class TestSilent:
    def test_outbound_swallowed(self):
        from tests.conftest import FakeContext

        scheduler = Scheduler()
        network = SimNetwork(scheduler, UniformDelayModel(0, 0.001), RngFactory(1))
        replica = _replica()
        apply_behavior("silent", replica, network, scheduler)
        ctx = FakeContext()
        replica.bind(ctx)
        replica.ctx.send(1, "msg")
        replica.ctx.broadcast("msg", include_self=False)
        assert ctx.sent == []
        assert ctx.broadcasts == []

    def test_timers_still_work(self):
        from tests.conftest import FakeContext

        scheduler = Scheduler()
        network = SimNetwork(scheduler, UniformDelayModel(0, 0.001), RngFactory(1))
        replica = _replica()
        apply_behavior("silent", replica, network, scheduler)
        ctx = FakeContext()
        replica.bind(ctx)
        replica.ctx.set_timer(1.0, "pacemaker", None)
        assert ctx.pending_tags() == ["pacemaker"]


class TestSlowLink:
    def _net(self):
        scheduler = Scheduler()
        network = SimNetwork(
            scheduler,
            UniformDelayModel(0, 0.001),
            RngFactory(1),
            priority_threshold=4096,
        )
        return scheduler, network

    def test_parse(self):
        assert parse_behavior("slow-link@1.5:3.0") == ("slow-link", (1.5, 3.0))

    def test_requires_time_range(self):
        scheduler, network = self._net()
        for spec in ("slow-link", "slow-link@1.0"):
            with pytest.raises(ConfigError):
                apply_behavior(spec, _replica(1), network, scheduler)

    def test_inflates_only_target_small_messages_inside_window(self):
        from repro.faults.behaviors import SLOW_LINK_FACTOR_LOW

        scheduler, network = self._net()
        replica = _replica(1)
        apply_behavior("slow-link@1.0:2.0", replica, network, scheduler)
        assert len(network.delay_policies) == 1
        policy = network.delay_policies[0]
        delta = replica.config.delta

        # Outside the window (now = 0): delays pass through untouched.
        assert policy(1, 0, "m", 100, 1e-4) == 1e-4

        results = {}

        def probe():
            results["target_small"] = policy(1, 0, "m", 100, 1e-4)
            results["other_src"] = policy(2, 0, "m", 100, 1e-4)
            results["target_large"] = policy(1, 0, "m", 100_000, 1e-4)

        scheduler.at(1.5, probe)
        scheduler.run(until=1.6)
        assert results["target_small"] >= SLOW_LINK_FACTOR_LOW * delta
        assert results["other_src"] == 1e-4
        assert results["target_large"] == 1e-4

    def test_drops_pass_through(self):
        scheduler, network = self._net()
        apply_behavior("slow-link@0.0:10.0", _replica(1), network, scheduler)
        policy = network.delay_policies[0]
        assert policy(1, 0, "m", 100, None) is None


class TestBehaviorTargets:
    def test_equivocate_supported_on_every_protocol_family(self):
        """Byzantine behaviors now have per-protocol implementations."""
        from repro.baselines.pbft import PBFTReplica
        from repro.crypto.keystore import build_cluster_keys

        scheduler = Scheduler()
        network = SimNetwork(scheduler, UniformDelayModel(0, 0.001), RngFactory(1))
        signers = build_cluster_keys("hashsig", 4)
        pbft = PBFTReplica(
            0,
            ValidatorSet.partially_synchronous(4, 1),
            ProtocolConfig(n=4, f=1),
            signers[0],
        )
        # Neither raises: PBFT equivocates via split pre-prepares, and
        # withholding degenerates to suppressing the leader's proposals.
        apply_behavior("equivocate", pbft, network, scheduler)
        apply_behavior("withhold_payload", pbft, network, scheduler)


class TestBadVote:
    def test_pbft_prepares_and_commits_carry_corrupted_signatures(self):
        """``bad-vote`` corrupts every vote-phase message a replica sends,
        PBFT's prepares and commits included; honest replicas' verify."""
        from repro.bench.common import make_config
        from repro.runner.cluster import build_cluster
        from repro.types.messages import PBFTCommitMsg, PBFTPrepareMsg

        cluster = build_cluster(
            make_config("pbft", f=1, rate=200, duration=2.0, seed=1, faults=((1, "bad-vote"),))
        )
        sent = {}  # (sender, class) → every vote it carried

        def tap(src, dst, msg, size):
            if isinstance(msg, (PBFTPrepareMsg, PBFTCommitMsg)):
                sent.setdefault((src, type(msg)), []).append(msg.vote)
            return True

        cluster.network.add_filter(tap)
        cluster.start()
        cluster.run()
        signer = cluster.replicas[0].signer
        for cls in (PBFTPrepareMsg, PBFTCommitMsg):
            assert sent.get((1, cls)), cls.__name__
            assert not any(vote.verify(signer) for vote in sent[(1, cls)]), cls.__name__
            assert all(vote.verify(signer) for vote in sent[(0, cls)]), cls.__name__
