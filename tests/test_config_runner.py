"""Configuration validation, protocol registry, cluster assembly."""

from __future__ import annotations

import pytest

from repro.config import ExperimentConfig, NetworkConfig, ProtocolConfig, WorkloadConfig
from repro.errors import ConfigError
from repro.runner.cluster import build_cluster, check_safety, make_delay_model
from repro.runner.experiment import standard_protocol_config
from repro.runner.registry import (
    cluster_size_for,
    protocol_names,
    quorum_style_for,
    replica_class_for,
    validator_set_for,
)
from tests.conftest import quick_config


class TestProtocolConfig:
    def test_valid_2f1(self):
        ProtocolConfig(n=3, f=1).validate("2f+1")

    def test_valid_3f1(self):
        ProtocolConfig(n=4, f=1).validate("3f+1")

    def test_insufficient_n(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(n=2, f=1).validate("2f+1")
        with pytest.raises(ConfigError):
            ProtocolConfig(n=3, f=1).validate("3f+1")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("delta", 0.0),
            ("epoch_timeout", -1.0),
            ("epoch_timeout_growth", 0.5),
            ("max_batch", 0),
            ("max_payload_bytes", 0),
            ("pipeline_depth", 0),
            ("idle_propose_delay", -0.1),
            ("signature_scheme", "rsa"),
        ],
    )
    def test_invalid_fields(self, field, value):
        with pytest.raises(ConfigError):
            ProtocolConfig(n=3, f=1, **{field: value}).validate("2f+1")

    def test_quorums(self):
        assert validator_set_for("alterbft", 7, 2).quorum == 3
        assert validator_set_for("hotstuff", 7, 2).quorum == 5

    def test_with_override(self):
        config = ProtocolConfig(n=3, f=1)
        assert config.with_(delta=0.1).delta == 0.1
        assert config.delta != 0.1  # original untouched


class TestNetworkConfig:
    def test_default_valid(self):
        NetworkConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("base_delay", -1.0),
            ("small_bound", 0.0),
            ("bandwidth", 0),
            ("egress_bandwidth", 0),
            ("slowdown_probability", 1.5),
            ("slowdown_alpha", 0),
        ],
    )
    def test_invalid_fields(self, field, value):
        with pytest.raises(ConfigError):
            NetworkConfig(**{field: value}).validate()


class TestExperimentConfig:
    def test_quick_config_valid(self):
        quick_config("alterbft").validate()

    def test_unknown_protocol(self):
        config = quick_config("alterbft")
        bad = ExperimentConfig(
            protocol="raft",
            protocol_config=config.protocol_config,
        )
        with pytest.raises(ConfigError):
            bad.validate()

    def test_fault_target_out_of_range(self):
        config = quick_config("alterbft", faults=((9, "crash"),))
        with pytest.raises(ConfigError):
            config.validate()

    def test_warmup_inside_run(self):
        config = quick_config("alterbft")
        bad = ExperimentConfig(
            protocol=config.protocol,
            protocol_config=config.protocol_config,
            max_sim_time=1.0,
            warmup=2.0,
        )
        with pytest.raises(ConfigError):
            bad.validate()

    def test_unknown_topology(self):
        config = quick_config("alterbft")
        bad = ExperimentConfig(
            protocol=config.protocol,
            protocol_config=config.protocol_config,
            topology="moon",
        )
        with pytest.raises(ConfigError):
            bad.validate()


class TestRegistry:
    def test_names(self):
        assert protocol_names() == ("alterbft", "hotstuff", "pbft", "sync-hotstuff")

    def test_quorum_styles(self):
        assert quorum_style_for("alterbft") == "2f+1"
        assert quorum_style_for("sync-hotstuff") == "2f+1"
        assert quorum_style_for("hotstuff") == "3f+1"
        assert quorum_style_for("pbft") == "3f+1"

    def test_cluster_sizes(self):
        assert cluster_size_for("alterbft", 2) == 5
        assert cluster_size_for("pbft", 2) == 7

    def test_unknown(self):
        with pytest.raises(ConfigError):
            replica_class_for("raft")
        with pytest.raises(ConfigError):
            quorum_style_for("raft")

    def test_validator_sets(self):
        assert validator_set_for("alterbft", 3, 1).quorum == 2
        assert validator_set_for("hotstuff", 4, 1).quorum == 3


class TestStandardConfig:
    def test_delta_assignment(self):
        alter = standard_protocol_config("alterbft", 1, delta_small=0.005, delta_big=0.4)
        sync = standard_protocol_config("sync-hotstuff", 1, delta_small=0.005, delta_big=0.4)
        hs = standard_protocol_config("hotstuff", 1, delta_small=0.005, delta_big=0.4)
        assert alter.delta == 0.005
        assert sync.delta == 0.4
        assert hs.delta == 0.005  # timers only
        assert alter.n == 3 and hs.n == 4

    def test_overrides(self):
        config = standard_protocol_config(
            "alterbft", 1, delta_small=0.005, delta_big=0.4, max_batch=7
        )
        assert config.max_batch == 7


class TestClusterAssembly:
    def test_wiring(self):
        cluster = build_cluster(quick_config("alterbft"))
        assert len(cluster.replicas) == 3
        assert cluster.honest_ids == {0, 1, 2}
        assert all(r.ctx is not None for r in cluster.replicas)

    def test_faulty_excluded_from_honest(self):
        cluster = build_cluster(quick_config("alterbft", faults=((2, "silent"),)))
        assert cluster.honest_ids == {0, 1}

    def test_wan_delay_model(self):
        from repro.net.delay import HybridCloudDelayModel, WanDelayModel

        config = quick_config("alterbft")
        assert isinstance(make_delay_model(config), HybridCloudDelayModel)
        wan = ExperimentConfig(
            protocol=config.protocol,
            protocol_config=config.protocol_config,
            topology="three-regions",
        )
        assert isinstance(make_delay_model(wan), WanDelayModel)

    def test_check_safety_detects_divergence(self):
        """check_safety flags two ledgers holding different blocks at one
        height (stub replicas; real runs are exercised elsewhere)."""
        from types import SimpleNamespace

        from repro.consensus.ledger import Ledger
        from repro.types.block import genesis_block, make_block
        from repro.types.transaction import make_transaction

        genesis_hash = genesis_block().block_hash
        ledger_a, ledger_b = Ledger(), Ledger()
        ledger_a.commit(make_block(1, 1, genesis_hash, (make_transaction(0, 0, 0.0, 8),), 0), 0.0)
        ledger_b.commit(make_block(1, 1, genesis_hash, (make_transaction(0, 1, 0.0, 8),), 0), 0.0)
        replicas = [
            SimpleNamespace(replica_id=0, ledger=ledger_a),
            SimpleNamespace(replica_id=1, ledger=ledger_b),
        ]
        assert not check_safety(replicas, {0, 1})
        assert check_safety(replicas, {0})  # one ledger alone is consistent
        assert check_safety([], set())
