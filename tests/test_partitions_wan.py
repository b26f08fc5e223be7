"""Network partitions and WAN topologies, end to end."""

from __future__ import annotations

import pytest

from repro.config import ExperimentConfig, WorkloadConfig
from repro.runner.cluster import build_cluster, check_safety
from repro.runner.experiment import run_experiment, standard_protocol_config
from tests.conftest import quick_config


class TestPartitions:
    def partitioned_run(self, protocol: str, heal_at: float, duration: float):
        """Partition the leader away from everyone at t=1, heal later."""
        config = quick_config(protocol, duration=duration, rate=200.0)
        cluster = build_cluster(config)
        cluster.start()
        cluster.scheduler.at(1.0, cluster.network.set_partition, [{1}, {0, 2}])
        cluster.scheduler.at(heal_at, cluster.network.heal_partition)
        cluster.run()
        return cluster

    def test_alterbft_partition_safety_and_recovery(self):
        cluster = self.partitioned_run("alterbft", heal_at=4.0, duration=10.0)
        assert check_safety(cluster.replicas, cluster.honest_ids)
        # The majority side elected a new leader and kept committing.
        majority_heights = [cluster.replicas[0].ledger.height, cluster.replicas[2].ledger.height]
        assert min(majority_heights) > 10

    def test_alterbft_minority_cannot_commit_alone(self):
        """While partitioned, the isolated replica commits nothing new.

        Note the subtlety: under *synchronous-model* protocols a
        partition violates the model's assumptions, so what protects
        safety here is that the isolated node cannot gather f+1 votes.
        """
        config = quick_config("alterbft", duration=6.0, rate=200.0)
        cluster = build_cluster(config)
        cluster.start()
        cluster.scheduler.run(until=1.0)
        isolated_height = cluster.replicas[1].ledger.height
        cluster.network.set_partition([{1}, {0, 2}])
        cluster.scheduler.run(until=5.0)
        # The isolated node (the old leader) gains at most the blocks that
        # were already certified and in flight at partition time.
        assert cluster.replicas[1].ledger.height <= isolated_height + 3
        assert check_safety(cluster.replicas, cluster.honest_ids)

    @pytest.mark.parametrize("protocol", ["hotstuff", "pbft"])
    def test_partial_sync_partition_recovery(self, protocol):
        cluster = self.partitioned_run(protocol, heal_at=4.0, duration=12.0)
        assert check_safety(cluster.replicas, cluster.honest_ids)
        assert max(r.ledger.height for r in cluster.replicas) > 10


class TestWan:
    def wan_config(self, protocol: str) -> ExperimentConfig:
        from repro.bench.common import DEFAULT_NETWORK, block_bytes
        from repro.net.delay import WanDelayModel
        from repro.net.topology import three_regions

        n = 3 if protocol in ("alterbft", "sync-hotstuff") else 4
        wan = WanDelayModel(DEFAULT_NETWORK, three_regions(n))
        pconf = standard_protocol_config(
            protocol,
            f=1,
            delta_small=wan.small_message_bound(),
            delta_big=wan.worst_case_bound(block_bytes(100, 256)),
            max_batch=100,
        )
        return ExperimentConfig(
            protocol=protocol,
            protocol_config=pconf,
            workload=WorkloadConfig(rate=100.0, duration=6.0, tx_size=256),
            max_sim_time=8.0,
            warmup=1.0,
            topology="three-regions",
        )

    @pytest.mark.parametrize("protocol", ["alterbft", "sync-hotstuff", "hotstuff"])
    def test_wan_commits_safely(self, protocol):
        result = run_experiment(self.wan_config(protocol))
        assert result.safety_ok
        assert result.committed_txs > 200

    def test_wan_latency_floor_is_cross_region(self):
        result = run_experiment(self.wan_config("alterbft"))
        # Inter-region one-way delays are ≥ 32 ms; commits cannot be
        # faster than a round of that plus 2Δ.
        assert result.latency.p50 > 0.1

    def test_wan_alterbft_still_beats_sync_hotstuff(self):
        alter = run_experiment(self.wan_config("alterbft"))
        sync = run_experiment(self.wan_config("sync-hotstuff"))
        assert alter.latency.p50 < sync.latency.p50
