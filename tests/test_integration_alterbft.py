"""AlterBFT end-to-end simulation tests."""

from __future__ import annotations

import pytest

from repro.runner.cluster import build_cluster, check_safety
from repro.runner.experiment import run_experiment, summarize
from tests.conftest import quick_config


class TestSteadyState:
    def test_commits_under_load(self):
        result = run_experiment(quick_config("alterbft"))
        assert result.safety_ok
        assert result.committed_txs > 500
        assert result.epoch_changes == 0

    def test_latency_tracks_two_delta(self):
        """p50 commit latency ≈ 2Δ + dissemination, far below 10Δ."""
        result = run_experiment(quick_config("alterbft"))
        delta = 0.005
        assert 2 * delta <= result.latency.p50 <= 10 * delta

    def test_all_replicas_commit_same_prefix(self):
        cluster = build_cluster(quick_config("alterbft"))
        cluster.start()
        cluster.run()
        heights = [r.ledger.height for r in cluster.replicas]
        assert min(heights) > 0
        assert check_safety(cluster.replicas, cluster.honest_ids)
        # Prefixes must be literally identical.
        shortest = min(heights)
        chains = [r.ledger.all_hashes()[: shortest + 1] for r in cluster.replicas]
        assert all(c == chains[0] for c in chains)

    def test_deterministic_given_seed(self):
        a = run_experiment(quick_config("alterbft", seed=42))
        b = run_experiment(quick_config("alterbft", seed=42))
        assert a.committed_txs == b.committed_txs
        assert a.latency.p50 == b.latency.p50
        assert a.wire["totals"]["msgs"] == b.wire["totals"]["msgs"]

    @pytest.mark.slow
    def test_different_seeds_differ(self):
        a = run_experiment(quick_config("alterbft", seed=1))
        b = run_experiment(quick_config("alterbft", seed=2))
        assert a.wire["totals"]["msgs"] != b.wire["totals"]["msgs"]

    @pytest.mark.slow
    def test_saturation_mode(self):
        result = run_experiment(quick_config("alterbft", rate=None, duration=4.0))
        assert result.safety_ok
        assert result.throughput_tps > 1000

    @pytest.mark.slow
    def test_larger_cluster(self):
        result = run_experiment(quick_config("alterbft", f=3, duration=4.0))
        assert result.n == 7
        assert result.safety_ok
        assert result.committed_txs > 200


class TestFaultTolerance:
    def test_crashed_leader_recovered(self):
        result = run_experiment(
            quick_config("alterbft", duration=8.0, faults=((1, "crash@2.0"),))
        )
        assert result.safety_ok
        assert result.epoch_changes >= 1
        assert result.committed_txs > 500

    def test_crashed_followers_tolerated(self):
        # f=2 cluster (n=5), two non-leader crashes: no epoch change needed.
        result = run_experiment(
            quick_config("alterbft", f=2, duration=6.0, faults=((2, "crash@1.0"), (3, "crash@1.5")))
        )
        assert result.safety_ok
        assert result.committed_txs > 300

    def test_equivocating_leader_safe(self):
        result = run_experiment(
            quick_config("alterbft", duration=8.0, faults=((1, "equivocate"),))
        )
        assert result.safety_ok
        assert result.epoch_changes >= 1
        assert result.committed_txs > 300

    def test_payload_withholding_leader_safe(self):
        result = run_experiment(
            quick_config("alterbft", duration=8.0, faults=((1, "withhold_payload"),))
        )
        assert result.safety_ok
        assert result.committed_txs > 300

    def test_silent_leader_recovered(self):
        result = run_experiment(
            quick_config("alterbft", duration=8.0, faults=((1, "silent"),))
        )
        assert result.safety_ok
        assert result.committed_txs > 300

    def test_delay_send_adversary_safe(self):
        result = run_experiment(
            quick_config("alterbft", duration=6.0, faults=((2, "delay_send"),))
        )
        assert result.safety_ok
        assert result.committed_txs > 300

    @pytest.mark.parametrize(
        "seed", [3] + [pytest.param(s, marks=pytest.mark.slow) for s in (7, 11)]
    )
    def test_byzantine_leader_across_seeds(self, seed):
        result = run_experiment(
            quick_config("alterbft", duration=7.0, seed=seed, faults=((1, "equivocate"),))
        )
        assert result.safety_ok


class TestAblations:
    def test_relay_off_forks_under_equivocation(self):
        result = run_experiment(
            quick_config(
                "alterbft", duration=8.0, faults=((1, "equivocate"),), relay_headers=False
            )
        )
        assert not result.safety_ok  # the mechanism is load-bearing

    @pytest.mark.slow
    def test_vote_on_header_stalls_under_withholding(self):
        ok = run_experiment(
            quick_config("alterbft", duration=8.0, faults=((1, "withhold_payload"),))
        )
        broken = run_experiment(
            quick_config(
                "alterbft",
                duration=8.0,
                faults=((1, "withhold_payload"),),
                vote_requires_payload=False,
            )
        )
        # Voting on headers certifies unavailable blocks: liveness suffers
        # badly relative to the payload-gated variant.
        assert broken.committed_txs < ok.committed_txs / 2
