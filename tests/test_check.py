"""Verification harness: invariants, adversary bounds, sweep, replay."""

from __future__ import annotations

import dataclasses
import random
from types import SimpleNamespace

import pytest

from repro.config import NetworkConfig
from repro.check import (
    AGREEMENT,
    BOUNDED_GAP,
    CERTIFIED_CHAIN,
    ModelBoundedAdversary,
    Scenario,
    check_agreement,
    check_bounded_gap,
    check_certified_chain,
    e10_demo_scenario,
    install_adversary,
    parse_scenario_id,
    replay_command,
    run_scenario,
    run_sweep,
)
from repro.check.scenarios import FAMILIES, SWEPT, build_config, grid
from repro.consensus.ledger import Ledger
from repro.errors import ConfigError
from repro.runner.cluster import build_cluster
from repro.sim.scheduler import Scheduler
from repro.types.block import make_block
from repro.types.transaction import Transaction


def _tx(seq: int, payload: bytes = b"x") -> Transaction:
    return Transaction(client_id=0, seq=seq, submitted_at=0.0, payload=payload)


def _ledger_with(*tx_payloads: bytes) -> Ledger:
    """A ledger committing one block per payload, chained from genesis."""
    ledger = Ledger()
    for height, payload in enumerate(tx_payloads, start=1):
        block = make_block(
            epoch=height,
            height=height,
            parent=ledger.head.block_hash,
            transactions=(_tx(height, payload),),
            proposer=0,
        )
        ledger.commit(block, now=float(height))
    return ledger


@dataclasses.dataclass(frozen=True)
class _FakeQC:
    block_hash: bytes


def _fake_cluster(replicas, honest_ids, max_sim_time=10.0, commit_times=None):
    return SimpleNamespace(
        replicas=replicas,
        honest_ids=honest_ids,
        config=SimpleNamespace(max_sim_time=max_sim_time),
        collector=SimpleNamespace(commit_times_by_replica=commit_times or {}),
    )


def _fake_replica(replica_id, ledger, qcs=(), verify=lambda qc: True):
    return SimpleNamespace(
        replica_id=replica_id,
        ledger=ledger,
        held_certificates=lambda: list(qcs),
        verify_qc=verify,
    )


class TestAgreement:
    def test_identical_ledgers_agree(self):
        cluster = _fake_cluster(
            [
                _fake_replica(0, _ledger_with(b"a", b"b")),
                _fake_replica(1, _ledger_with(b"a", b"b")),
            ],
            honest_ids={0, 1},
        )
        assert check_agreement(cluster).ok

    def test_prefix_is_agreement(self):
        cluster = _fake_cluster(
            [
                _fake_replica(0, _ledger_with(b"a", b"b")),
                _fake_replica(1, _ledger_with(b"a")),
            ],
            honest_ids={0, 1},
        )
        assert check_agreement(cluster).ok

    def test_conflicting_commit_detected(self):
        cluster = _fake_cluster(
            [
                _fake_replica(0, _ledger_with(b"a", b"b")),
                _fake_replica(1, _ledger_with(b"a", b"CONFLICT")),
            ],
            honest_ids={0, 1},
        )
        result = check_agreement(cluster)
        assert not result.ok
        assert result.name == AGREEMENT
        assert "height 2" in result.detail

    def test_faulty_replica_ignored(self):
        cluster = _fake_cluster(
            [
                _fake_replica(0, _ledger_with(b"a")),
                _fake_replica(1, _ledger_with(b"CONFLICT")),
            ],
            honest_ids={0},
        )
        assert check_agreement(cluster).ok


class TestCertifiedChain:
    def test_committed_block_without_certificate_flagged(self):
        cluster = _fake_cluster(
            [_fake_replica(0, _ledger_with(b"a"))], honest_ids={0}
        )
        result = check_certified_chain(cluster)
        assert not result.ok
        assert result.name == CERTIFIED_CHAIN
        assert "no valid QC" in result.detail

    def test_certificate_anywhere_in_cluster_suffices(self):
        ledger = _ledger_with(b"a")
        qc = _FakeQC(block_hash=ledger.head.block_hash)
        holder = _fake_replica(1, _ledger_with(b"a"), qcs=[qc])
        cluster = _fake_cluster(
            [_fake_replica(0, ledger), holder], honest_ids={0, 1}
        )
        assert check_certified_chain(cluster).ok

    def test_invalid_certificate_rejected(self):
        ledger = _ledger_with(b"a")
        qc = _FakeQC(block_hash=ledger.head.block_hash)
        replica = _fake_replica(0, ledger, qcs=[qc], verify=lambda qc: False)
        cluster = _fake_cluster([replica], honest_ids={0})
        assert not check_certified_chain(cluster).ok


#: sha256 over the sorted encodings of the certificates the certified-chain
#: invariant collected from a seeded run of each protocol
#: (``make_config(protocol, rate=500, duration=2, seed=7)``, fault-free and
#: with replica 1 crashed at t=1), when it still probed replica attributes
#: by name.  ``held_certificates`` must find exactly the same ones.
PARENT_CERTIFICATES = {
    ("alterbft", False): (823, "d55cac424c2668408f8a26594677bda84cc57a29fa7c96acc421d9549036a8c8"),
    ("alterbft", True): (92, "aadecf4ce4bd6b3c52a4907567fe78dbf58e98662cc9d3fa49b1df928e085ca4"),
    ("sync-hotstuff", False): (908, "0aa9cd73e5fbfd5ecbde3dcb7c97a72450f080866bc626ff4312e5f9c1c997b0"),
    ("sync-hotstuff", True): (93, "bc1232d16e824396ee2782f87c6d362aa3aa4be01774185d77f4d0d6c3e40998"),
    ("hotstuff", False): (627, "b8aae93735276b2845f95a3557ddac4ba984cab4d9740928e746c9aa96a22495"),
    ("hotstuff", True): (136, "9c3cb3ef33e4cf67d34ec9a31bd7d7669b0c699d6eb76a9eeebe5d4b118d0f8b"),
    ("pbft", False): (1938, "b408a746bae03470b9091ed056469f39eb2d1524338123428acf3e02007c6ebf"),
    ("pbft", True): (191, "ff704d7ef0b637c70aa3c92e8d356b89a2322ecfda65b75dc6882781401181ee"),
}


class TestCollectedCertificates:
    @pytest.mark.parametrize("protocol,crash", sorted(PARENT_CERTIFICATES))
    def test_each_protocol_names_the_parents_set(self, protocol, crash):
        import hashlib

        from repro.bench.common import make_config
        from repro.check.invariants import _collect_certificates
        from repro.codec import encode

        faults = ((1, "crash@1.0"),) if crash else ()
        cluster = build_cluster(
            make_config(protocol, rate=500.0, duration=2.0, seed=7, faults=faults)
        )
        cluster.start()
        cluster.run()
        blobs = sorted(encode(qc) for qc in _collect_certificates(cluster))
        digest = hashlib.sha256(b"".join(blobs)).hexdigest()
        assert (len(blobs), digest) == PARENT_CERTIFICATES[protocol, crash]
        assert check_certified_chain(cluster).ok

    def test_pbft_orphan_buffers_are_collected(self):
        from repro.bench.common import make_config
        from repro.check.invariants import _collect_certificates

        cluster = build_cluster(make_config("pbft", rate=100.0, duration=2.0, seed=7))
        cluster.start()
        cluster.run()
        replica = cluster.replicas[0]
        prepare, commit = (
            dataclasses.replace(qc, epoch=99) for qc in list(replica._qcs.values())[:2]
        )
        assert {prepare, commit}.isdisjoint(_collect_certificates(cluster))
        replica._orphan_prepare_qcs[prepare.block_hash] = prepare
        replica._orphan_commit_qcs[commit.block_hash] = commit
        assert {prepare, commit} <= set(_collect_certificates(cluster))


class TestBoundedGap:
    def test_regular_commits_pass(self):
        cluster = _fake_cluster(
            [_fake_replica(0, Ledger())],
            honest_ids={0},
            max_sim_time=10.0,
            commit_times={0: [2.5, 3.0, 4.0, 5.5, 7.0, 8.5, 9.5]},
        )
        assert check_bounded_gap(cluster, recovery_time=2.0, gap_bound=2.0).ok

    def test_long_gap_flagged(self):
        cluster = _fake_cluster(
            [_fake_replica(0, Ledger())],
            honest_ids={0},
            max_sim_time=10.0,
            commit_times={0: [2.5, 9.5]},
        )
        result = check_bounded_gap(cluster, recovery_time=2.0, gap_bound=2.0)
        assert not result.ok
        assert result.name == BOUNDED_GAP

    def test_silent_replica_flagged(self):
        cluster = _fake_cluster(
            [_fake_replica(0, Ledger())],
            honest_ids={0},
            max_sim_time=10.0,
            commit_times={},
        )
        assert not check_bounded_gap(cluster, recovery_time=2.0, gap_bound=2.0).ok

    def test_short_window_vacuous(self):
        cluster = _fake_cluster(
            [_fake_replica(0, Ledger())], honest_ids={0}, max_sim_time=3.0
        )
        assert check_bounded_gap(cluster, recovery_time=2.0, gap_bound=2.0).ok


class TestAdversary:
    def _adversary(self, profile, start_time=0.0, seed=7):
        return ModelBoundedAdversary(
            profile,
            NetworkConfig(),
            Scheduler(start_time=start_time),
            random.Random(seed),
        )

    def test_calibrated_installs_no_policy(self):
        assert self._adversary("calibrated").policy() is None

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError):
            self._adversary("chaos-monkey")

    def test_small_messages_never_exceed_bound(self):
        network = NetworkConfig()
        for profile in ("adversarial", "stall-large"):
            adversary = self._adversary(profile)
            policy = adversary.policy()
            for i in range(2000):
                delay = policy(i % 3, (i + 1) % 3, object(), 200, 0.001)
                assert delay is not None
                assert 0.0 < delay < network.small_bound

    def test_small_delays_deterministic_per_seed(self):
        def draws(seed):
            policy = self._adversary("adversarial", seed=seed).policy()
            return [policy(0, 1, object(), 100, 0.001) for _ in range(50)]

        assert draws(1) == draws(1)
        assert draws(1) != draws(2)

    def test_stall_large_holds_cross_cut_messages(self):
        adversary = self._adversary("stall-large", start_time=1.2)
        policy = adversary.policy()
        # Crossing the even/odd cut inside the window: held past window end.
        held = policy(0, 1, object(), 50_000, 0.002)
        assert held >= 0.4  # window ends at 1.6, now is 1.2
        # Same side of the cut: model delay untouched.
        assert policy(0, 2, object(), 50_000, 0.002) == 0.002
        assert adversary.stalled == 1

    def test_stall_large_outside_window_untouched(self):
        policy = self._adversary("stall-large", start_time=3.0).policy()
        assert policy(0, 1, object(), 50_000, 0.002) == 0.002

    def test_adversarial_large_adds_bounded_extra(self):
        policy = self._adversary("adversarial").policy()
        for _ in range(500):
            delay = policy(0, 1, object(), 50_000, 0.010)
            assert delay is not None  # anonymous type is never droppable
            assert 0.010 <= delay <= 0.010 + 0.10 + 1e-9


class TestScenarios:
    def test_id_roundtrip(self):
        scenario = Scenario("alterbft", "equivocate", "adversarial", 3)
        assert parse_scenario_id(scenario.scenario_id) == scenario

    def test_id_roundtrip_with_flags(self):
        scenario = Scenario(
            "alterbft", "equivocate", "calibrated", 5, relay_headers=False, duration=8.0
        )
        parsed = parse_scenario_id(scenario.scenario_id)
        assert parsed == scenario
        assert "norelay" in scenario.scenario_id

    def test_bad_ids_rejected(self):
        for bad in ("alterbft:crash", "a:b:calibrated:x", "a:b:nope:1", "a:b:calibrated:1:wat"):
            with pytest.raises(ConfigError):
                parse_scenario_id(bad)

    def test_replay_command_names_the_scenario(self):
        scenario = e10_demo_scenario(4)
        assert scenario.scenario_id in replay_command(scenario)

    def test_default_grid_clears_acceptance_floor(self):
        scenarios = grid(families=("main",))
        assert len(scenarios) >= 200
        assert len(set(s.scenario_id for s in scenarios)) == len(scenarios)

    def test_slow_link_id_roundtrip(self):
        scenario = Scenario("alterbft", "slow-link", "calibrated", 3)
        assert parse_scenario_id(scenario.scenario_id) == scenario

    def test_grid_includes_slow_link(self):
        scenarios = grid(families=("main",), seeds=1)
        assert len(scenarios) == 48  # 2 protocols x 8 behaviors x 3 profiles
        assert any(s.behavior == "slow-link" for s in scenarios)

    def test_slow_link_config_enables_guard(self):
        config = build_config(Scenario("alterbft", "slow-link", "calibrated", 1))
        assert config.protocol_config.guard_enabled
        assert config.faults and "slow-link@" in config.faults[0][1]

    def test_configs_validate(self):
        for scenario in grid(families=("main",), seeds=1):
            build_config(scenario).validate()


#: ``python -m repro.check ARGS --list`` at the commit before the three
#: generators became one table walk: (args, lines, sha256 of the output).
PARENT_LISTS = [
    ("", 492, "d097afe1306e333d9ca1c6ad18027b2691b942570540be44d13610f9e8cbd5a9"),
    ("--smoke", 116, "ac765aeb89423aae322686f296773f9e62ee91e57de62a30c484b222ae2272a8"),
    # CI's four other invocations, in their --family spelling.
    (
        "--behaviors bad-vote --seeds 2",
        24,
        "03b41aaad57791f79ffc86e07330bf0ff1d99fa3d6602eacfea82cd76650553a",
    ),
    (
        "--family pipelined --depths 4 --seeds 1",
        30,
        "1dbef8bce3f67ba23167b78bd7ae964898471b411f04b92dc060c0aee335f391",
    ),
    (
        "--family dissem --seeds 1",
        18,
        "db427a2eb9da2ebe104e3053bcf44c4329dae649e91c9a6ec6f4403c8024d4c1",
    ),
    (
        "--behaviors slow-link --seeds 2",
        24,
        "85ea83d81a7055a99cd5ccf8ced7c6014e9791aa14879a8508d7dbdc7271ca07",
    ),
]

#: The three hand-kept name tuples the families replaced, in their order.
PARENT_BEHAVIORS = (
    "none",
    "crash",
    "crash-recover",
    "equivocate",
    "withhold_payload",
    "delay_send",
    "slow-link",
    "bad-vote",
)
PARENT_FAMILY_BEHAVIORS = {
    "main": PARENT_BEHAVIORS,
    "pipelined": PARENT_BEHAVIORS + ("equivocate-inflight", "withhold-suffix"),
    "dissem": ("none", "withhold_chunks", "corrupt_chunk"),
}

#: Fault behaviors no family sweeps, on purpose: ``silent`` is covered by
#: the integration and property tests, not the adversarial grid.
NOT_SWEPT = {"silent"}


class TestTables:
    @pytest.mark.parametrize("args,lines,digest", PARENT_LISTS)
    def test_list_output_is_the_parents(self, args, lines, digest, capsys):
        import hashlib

        from repro.check import main

        assert main(args.split() + ["--list"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_families_keep_the_parents_behaviors_in_order(self):
        assert list(FAMILIES) == ["main", "pipelined", "dissem"]
        for name, family in FAMILIES.items():
            assert family.behaviors == PARENT_FAMILY_BEHAVIORS[name]

    def test_every_fault_behavior_is_swept_or_excused(self):
        from repro.faults import BEHAVIORS

        swept = {b for family in FAMILIES.values() for b in family.behaviors}
        assert swept - {"none"} <= set(BEHAVIORS)
        assert set(BEHAVIORS) - swept == NOT_SWEPT
        assert set(SWEPT) <= swept

    def test_unknown_family_is_a_usage_error(self, capsys):
        from repro.check import main

        assert main(["--family", "nope", "--list"]) == 2
        assert "unknown family 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "protocol,fault",
        [
            ("alterbft", "teleport"),
            ("alterbft", "crash@1:2"),
            ("alterbft", "slow-link"),
            ("alterbft", "slow-link@1.0"),
            ("alterbft", "silent@1.0"),
            ("alterbft", "withhold_chunks"),
            ("sync-hotstuff", "equivocate-inflight"),
            ("hotstuff", "crash-recover@1.0:2.0"),
        ],
    )
    def test_a_fault_the_run_cannot_carry_fails_at_validate(self, protocol, fault):
        from repro.bench.common import make_config

        config = make_config(protocol, duration=3.0, faults=((1, fault),))
        with pytest.raises(ConfigError):
            config.validate()

    def test_the_flag_a_fault_needs_makes_it_valid(self):
        from repro.bench.common import make_config

        make_config(
            "alterbft", duration=3.0, faults=((1, "withhold_chunks"),), dissemination=True
        ).validate()


class TestSweep:
    def test_scenario_passes_and_replays_identically(self):
        scenario = parse_scenario_id("alterbft:none:adversarial:1")
        first = run_scenario(scenario)
        assert first.ok, [str(v) for v in first.violations]
        second = run_scenario(scenario)
        assert second.fingerprint == first.fingerprint

    def test_adversary_profile_changes_the_run(self):
        calibrated = run_scenario(parse_scenario_id("alterbft:none:calibrated:1"))
        adversarial = run_scenario(parse_scenario_id("alterbft:none:adversarial:1"))
        assert calibrated.fingerprint != adversarial.fingerprint

    def test_calibrated_profile_is_invisible(self):
        """Installing the 'calibrated' adversary must not perturb a run."""
        scenario = parse_scenario_id("alterbft:none:calibrated:1:dur3")
        config = build_config(scenario)
        cluster = build_cluster(config)
        cluster.start()
        cluster.run()
        bare = cluster.trace.fingerprint()

        cluster2 = build_cluster(config)
        install_adversary(cluster2, "calibrated")
        cluster2.start()
        cluster2.run()
        assert cluster2.trace.fingerprint() == bare

    def test_slow_link_scenario_runs_guard_flagging(self):
        from repro.check import GUARD_FLAGGING

        result = run_scenario(parse_scenario_id("alterbft:slow-link:calibrated:1"))
        assert result.ok, [str(v) for v in result.violations]
        names = [r.name for r in result.results]
        assert GUARD_FLAGGING in names
        # Gray failure legitimately slows commits: bounded-gap not asserted.
        assert BOUNDED_GAP not in names

    def test_relay_off_fork_detected_and_deterministic(self):
        """The E10 ablation: the harness must catch the fork, repeatably."""
        result = run_scenario(e10_demo_scenario(1))
        agreement = next(r for r in result.results if r.name == AGREEMENT)
        assert not agreement.ok
        rerun = run_scenario(e10_demo_scenario(1))
        assert rerun.fingerprint == result.fingerprint

    @pytest.mark.slow
    def test_mini_sweep_all_combos_clean(self):
        results = run_sweep(grid(families=("main",), seeds=1), jobs=1, progress=False)
        failing = [r.scenario.scenario_id for r in results if not r.ok]
        assert failing == []


#: sha256 over the sorted ``"<scenario id> <fingerprint>"`` lines of the
#: 116 ``python -m repro.check --smoke`` scenarios, and the E10 demo's
#: fingerprint.  A behaviour-neutral change leaves both untouched.
SMOKE_GRID_DIGEST = "572f5326b209daf30c5bec0211c50e439df3de1f0f75e3352a2821c28982cc29"
E10_DEMO_FINGERPRINT = "3c21890852d8dc38d523e63c1c41cadfdfcb2ed4c39d8842bebc17da195ef4ef"


@pytest.mark.slow
def test_smoke_grid_fingerprints_are_pinned():
    import hashlib

    from repro.check.runner import run_demo
    from repro.check.scenarios import PROFILES

    scenarios = grid(smoke=True, profiles=[p for p in PROFILES if p != "stall-large"])
    assert len(scenarios) == 116
    results = run_sweep(scenarios, jobs=2, progress=False)
    assert [r.scenario.scenario_id for r in results if not r.ok] == []
    lines = sorted(f"{r.scenario.scenario_id} {r.fingerprint}" for r in results)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SMOKE_GRID_DIGEST
    demo, identical = run_demo()
    assert demo.scenario.scenario_id == "alterbft:equivocate:calibrated:1:norelay"
    assert (demo.fingerprint, identical) == (E10_DEMO_FINGERPRINT, True)
