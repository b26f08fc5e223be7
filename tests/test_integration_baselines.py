"""End-to-end simulation tests for the three baseline protocols."""

from __future__ import annotations

import pytest

from repro.bench.common import make_config
from repro.runner.cluster import build_cluster, check_safety
from repro.runner.experiment import run_experiment
from tests.conftest import quick_config


class TestSyncHotStuff:
    def test_commits_under_load(self):
        result = run_experiment(quick_config("sync-hotstuff"))
        assert result.safety_ok
        assert result.committed_txs > 500
        assert result.epoch_changes == 0

    def test_latency_pays_two_big_delta(self):
        """Commit latency is pinned above 2Δ_big (0.1 s in quick_config)."""
        result = run_experiment(quick_config("sync-hotstuff"))
        assert result.latency.p50 >= 0.2

    @pytest.mark.slow
    def test_throughput_matches_alterbft(self):
        """Same certification pipeline → similar throughput despite the
        enormous latency difference (the paper's claim)."""
        sync = run_experiment(quick_config("sync-hotstuff", rate=None, duration=4.0))
        alter = run_experiment(quick_config("alterbft", rate=None, duration=4.0))
        assert sync.throughput_tps > 0.5 * alter.throughput_tps

    def test_crash_leader_recovers(self):
        result = run_experiment(
            quick_config("sync-hotstuff", duration=10.0, faults=((1, "crash@2.0"),))
        )
        assert result.safety_ok
        assert result.epoch_changes >= 1
        assert result.committed_txs > 200

    @pytest.mark.slow
    def test_equivocation_detected_and_safe(self):
        result = run_experiment(
            quick_config("sync-hotstuff", duration=10.0, faults=((1, "equivocate"),))
        )
        assert result.safety_ok
        assert result.epoch_changes >= 1

    @pytest.mark.slow
    def test_deterministic(self):
        a = run_experiment(quick_config("sync-hotstuff", seed=5))
        b = run_experiment(quick_config("sync-hotstuff", seed=5))
        assert a.committed_txs == b.committed_txs


class TestHotStuff:
    def test_commits_under_load(self):
        result = run_experiment(quick_config("hotstuff"))
        assert result.n == 4  # 3f+1
        assert result.safety_ok
        assert result.committed_txs > 500

    def test_no_delta_on_critical_path(self):
        """Latency well below any synchronous wait."""
        result = run_experiment(quick_config("hotstuff"))
        assert result.latency.p50 < 0.05

    def test_crash_leader_recovers(self):
        result = run_experiment(
            quick_config("hotstuff", duration=10.0, faults=((1, "crash@2.0"),))
        )
        assert result.safety_ok
        assert result.epoch_changes >= 1
        assert result.committed_txs > 200

    def test_crashed_follower_tolerated(self):
        result = run_experiment(
            quick_config("hotstuff", duration=6.0, faults=((3, "crash@1.0"),))
        )
        assert result.safety_ok
        assert result.committed_txs > 300

    def test_three_chain_commit_lag_bounded(self):
        """Every replica ends within a few blocks of the maximum."""
        cluster = build_cluster(quick_config("hotstuff", duration=4.0))
        cluster.start()
        cluster.run()
        heights = [r.ledger.height for r in cluster.replicas]
        assert max(heights) - min(heights) < 30

    @pytest.mark.parametrize("seed", [2, 9])
    def test_safety_across_seeds(self, seed):
        result = run_experiment(quick_config("hotstuff", seed=seed, duration=4.0))
        assert result.safety_ok

    def test_every_honest_replica_commits_under_equivocation(self):
        """A Byzantine leader sends variant A to the lower half and B to the
        upper half.  B is certified without replica 0, which never receives
        it; the fetch brings it, so replica 0 commits with the others."""
        cluster = build_cluster(
            make_config("hotstuff", f=1, rate=500, duration=8, seed=1, faults=((1, "equivocate"),))
        )
        cluster.start()
        cluster.run()
        assert check_safety(cluster.replicas, cluster.honest_ids)
        heights = {r.replica_id: r.ledger.height for r in cluster.replicas
                   if r.replica_id in cluster.honest_ids}
        assert all(heights.values()), heights


class TestPBFT:
    def test_commits_under_load(self):
        result = run_experiment(quick_config("pbft"))
        assert result.n == 4
        assert result.safety_ok
        assert result.committed_txs > 500

    def test_lowest_fault_free_latency(self):
        """One large hop + two small quadratic rounds: very low latency."""
        result = run_experiment(quick_config("pbft"))
        assert result.latency.p50 < 0.02

    def test_quadratic_message_complexity(self):
        """PBFT sends clearly more messages per block than HotStuff."""
        pbft = run_experiment(quick_config("pbft", duration=4.0))
        hs = run_experiment(quick_config("hotstuff", duration=4.0))
        pbft_per_block = pbft.wire["totals"]["msgs"] / max(pbft.committed_blocks, 1)
        hs_per_block = hs.wire["totals"]["msgs"] / max(hs.committed_blocks, 1)
        assert pbft_per_block > hs_per_block

    def test_view_change_on_crashed_leader(self):
        result = run_experiment(
            quick_config("pbft", duration=10.0, faults=((1, "crash@2.0"),))
        )
        assert result.safety_ok
        assert result.epoch_changes >= 1
        assert result.committed_txs > 200

    def test_crashed_follower_tolerated(self):
        result = run_experiment(
            quick_config("pbft", duration=6.0, faults=((2, "crash@1.0"),))
        )
        assert result.safety_ok
        assert result.committed_txs > 300

    @pytest.mark.slow
    def test_deterministic(self):
        a = run_experiment(quick_config("pbft", seed=3))
        b = run_experiment(quick_config("pbft", seed=3))
        assert a.committed_txs == b.committed_txs


class TestCrossProtocol:
    @pytest.mark.parametrize("protocol", ["alterbft", "sync-hotstuff", "hotstuff", "pbft"])
    def test_ledger_prefix_agreement(self, protocol):
        cluster = build_cluster(quick_config(protocol, duration=4.0))
        cluster.start()
        cluster.run()
        assert check_safety(cluster.replicas, cluster.honest_ids)
        shortest = min(r.ledger.height for r in cluster.replicas)
        chains = [r.ledger.all_hashes()[: shortest + 1] for r in cluster.replicas]
        assert all(c == chains[0] for c in chains)

    @pytest.mark.parametrize("protocol", ["alterbft", "sync-hotstuff", "hotstuff", "pbft"])
    def test_no_transaction_committed_twice(self, protocol):
        cluster = build_cluster(quick_config(protocol, duration=4.0))
        cluster.start()
        cluster.run()
        for replica in cluster.replicas:
            seen = set()
            for height in range(1, replica.ledger.height + 1):
                for tx in replica.ledger.block_at(height).payload.transactions:
                    key = (tx.client_id, tx.seq)
                    assert key not in seen, f"{protocol}: tx {key} committed twice"
                    seen.add(key)
