"""System-level randomized properties.

These tests sweep random seeds and fault placements and assert the two
invariants the paper's correctness rests on: honest ledgers never fork
(safety), and fault-free runs commit (liveness).  They are the
closest thing to a model-checking pass the simulator offers.
"""

from __future__ import annotations

import random

import pytest

from repro.runner.cluster import build_cluster, check_safety
from repro.runner.experiment import run_experiment, summarize
from tests.conftest import quick_config

BEHAVIORS = ("crash@1.0", "silent", "equivocate", "withhold_payload", "delay_send")


def random_fault(rng: random.Random, protocol: str, n: int):
    """One random fault assignment valid for the protocol."""
    replica = rng.randrange(n)
    pool = BEHAVIORS if protocol in ("alterbft",) else ("crash@1.0", "silent", "delay_send")
    if protocol == "sync-hotstuff":
        pool = ("crash@1.0", "silent", "equivocate", "delay_send")
    return (replica, rng.choice(pool))


class TestRandomizedSafety:
    @pytest.mark.parametrize(
        "trial", [0] + [pytest.param(t, marks=pytest.mark.slow) for t in range(1, 6)]
    )
    def test_alterbft_random_single_fault(self, trial):
        rng = random.Random(1000 + trial)
        fault = random_fault(rng, "alterbft", 3)
        result = run_experiment(
            quick_config(
                "alterbft",
                duration=6.0,
                seed=2000 + trial,
                faults=(fault,),
            )
        )
        assert result.safety_ok, f"fork with fault {fault}"

    @pytest.mark.parametrize(
        "trial", [0] + [pytest.param(t, marks=pytest.mark.slow) for t in (1, 2)]
    )
    def test_alterbft_f2_two_random_faults(self, trial):
        rng = random.Random(3000 + trial)
        ids = rng.sample(range(5), 2)
        faults = tuple((i, rng.choice(BEHAVIORS)) for i in ids)
        result = run_experiment(
            quick_config("alterbft", f=2, duration=6.0, seed=4000 + trial, faults=faults)
        )
        assert result.safety_ok, f"fork with faults {faults}"

    @pytest.mark.parametrize("protocol", ["sync-hotstuff", "hotstuff", "pbft"])
    def test_baselines_random_fault(self, protocol):
        rng = random.Random(hash(protocol) & 0xFFFF)
        n = 3 if protocol == "sync-hotstuff" else 4
        fault = random_fault(rng, protocol, n)
        result = run_experiment(
            quick_config(protocol, duration=6.0, seed=5000, faults=(fault,))
        )
        assert result.safety_ok, f"{protocol}: fork with fault {fault}"


class TestRandomizedLiveness:
    @pytest.mark.parametrize(
        "seed", [11] + [pytest.param(s, marks=pytest.mark.slow) for s in (22, 33, 44)]
    )
    def test_fault_free_runs_always_commit(self, seed):
        for protocol in ("alterbft", "sync-hotstuff", "hotstuff", "pbft"):
            result = run_experiment(
                quick_config(protocol, duration=4.0, seed=seed, rate=200.0)
            )
            assert result.committed_txs > 100, f"{protocol} stalled at seed {seed}"
            assert result.safety_ok

    def test_alterbft_commits_despite_heavy_tails(self):
        """Aggressive slowdown parameters: liveness must survive."""
        from repro.config import NetworkConfig

        network = NetworkConfig(slowdown_probability=0.3, slowdown_scale=0.05)
        result = run_experiment(
            quick_config("alterbft", duration=6.0, network=network, rate=200.0)
        )
        assert result.safety_ok
        assert result.committed_txs > 100

    def test_alterbft_survives_message_drops(self):
        """Outside the formal model (drops), the repair paths still make
        progress with a lossy network."""
        cluster = build_cluster(quick_config("alterbft", duration=8.0, rate=200.0))
        rng = random.Random(1)
        cluster.network.add_filter(lambda src, dst, msg, size: rng.random() >= 0.01)
        cluster.start()
        cluster.run()
        result = summarize(cluster)
        assert result.safety_ok
        assert result.committed_txs > 50
