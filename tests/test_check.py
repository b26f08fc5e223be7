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
    install_certificate_log,
    parse_scenario_id,
    replay_command,
    run_scenario,
    run_sweep,
)
from repro.check.invariants import CertificateLog
from repro.check.scenarios import FAMILIES, SWEPT, build_config, grid
from repro.consensus.ledger import Ledger
from repro.errors import ConfigError
from repro.runner.cluster import build_cluster
from repro.sim.scheduler import Scheduler
from repro.types.block import make_block
from repro.types.messages import BlockRangeRequestMsg
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
    log = CertificateLog()  # one per cluster, as install_certificate_log attaches it
    for replica in replicas:
        for qc in replica.qcs:
            log.on_certificate(qc)
        replica.subsystems[log.name] = log
    return SimpleNamespace(
        replicas=replicas,
        honest_ids=honest_ids,
        config=SimpleNamespace(max_sim_time=max_sim_time),
        collector=SimpleNamespace(
            commit_records_by_replica={
                replica_id: [(t, 0, b"", b"") for t in times]
                for replica_id, times in (commit_times or {}).items()
            }
        ),
    )


def _fake_replica(replica_id, ledger, qcs=(), verify=lambda qc: True):
    return SimpleNamespace(
        replica_id=replica_id, ledger=ledger, qcs=qcs, subsystems={}, verify_qc=verify
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

    def test_a_run_without_a_certificate_log_is_a_violation(self):
        replica = _fake_replica(0, _ledger_with(b"a"))
        cluster = SimpleNamespace(replicas=[replica], honest_ids={0})
        result = check_certified_chain(cluster)
        assert not result.ok and "install_certificate_log" in result.detail


#: The blocks the certified-chain invariant counts as certified in a seeded
#: run of each protocol (``make_config(protocol, rate=500, duration=2,
#: seed=7)``, fault-free and with replica 1 crashed at t=1): how many, and
#: sha256 over their sorted hashes.  Computed at the parent of the
#: certificate log, when the invariant still read what every honest replica
#: held at the end of the run; the log, which replicas feed as they form or
#: accept certificates, must certify exactly the same blocks.  (Before the
#: log this pinned the certificates themselves: a pin on retention, not on
#: what the invariant decides.)  The fault-free AlterBFT and Sync HotStuff
#: rows were re-pinned when header relays stopped going to the proposer,
#: which changes those runs, and the crashed HotStuff row when every
#: certificate became an aggregate: smaller messages move that run.
PARENT_CERTIFICATES = {
    ("alterbft", False): (420, "c009ccba51889c699979263dab8cf316ee0c118d688b2d07642f43fc0a86a318"),
    ("alterbft", True): (47, "a1b2a8e2cef9311ac137b409b7bf0705b1fd5d72717fedb296d513675e38bafd"),
    ("sync-hotstuff", False): (438, "3f7fa4232d26e09a654b323692a51fa0249b3eddbcf978ae98717b98fc21e9e9"),
    ("sync-hotstuff", True): (47, "a1b2a8e2cef9311ac137b409b7bf0705b1fd5d72717fedb296d513675e38bafd"),
    ("hotstuff", False): (627, "0d9edc0f65d440c99515918a9b977790c4a41fac8f07fe23e9c44447994a58ab"),
    ("hotstuff", True): (139, "d8debe418428180485d77a00574d28f059488729ab1b77470751bc964b58bb65"),
    ("pbft", False): (418, "3f8e4025990b40b5228dc95f547c8efeb649ad1db599721b6964b13db9bade26"),
    ("pbft", True): (46, "7a36762879b458ba9a281df9dbb80b42f41a8c7d746ca4f52c62d44a351e8655"),
}


def _logged_run(cluster):
    """Run a cluster with a certificate log attached; return the log."""
    log = install_certificate_log(cluster)
    cluster.start()
    cluster.run()
    return log


def _certified(cluster, log):
    verifier = cluster.replicas[min(cluster.honest_ids)]
    return {h for h, qc in log.by_block.items() if verifier.verify_qc(qc)}


class TestCollectedCertificates:
    @pytest.mark.parametrize("protocol,crash", sorted(PARENT_CERTIFICATES))
    def test_each_protocol_names_the_parents_set(self, protocol, crash):
        import hashlib

        from repro.bench.common import make_config

        faults = ((1, "crash@1.0"),) if crash else ()
        cluster = build_cluster(
            make_config(protocol, rate=500.0, duration=2.0, seed=7, faults=faults)
        )
        certified = sorted(_certified(cluster, _logged_run(cluster)))
        digest = hashlib.sha256(b"".join(certified)).hexdigest()
        assert (len(certified), digest) == PARENT_CERTIFICATES[protocol, crash]
        assert check_certified_chain(cluster).ok

    def test_a_certificate_that_does_not_verify_is_not_counted(self):
        from repro.bench.common import make_config

        cluster = build_cluster(make_config("pbft", rate=100.0, duration=2.0, seed=7))
        log = _logged_run(cluster)
        assert check_certified_chain(cluster).ok
        head = cluster.replicas[0].ledger.head
        valid = log.by_block[head.block_hash]
        log.by_block[head.block_hash] = dataclasses.replace(valid, epoch=valid.epoch + 99)
        result = check_certified_chain(cluster)
        assert not result.ok and "no valid QC" in result.detail
        log.by_block[head.block_hash] = valid
        assert check_certified_chain(cluster).ok


def _fence_a():
    from tests.test_perf_hotpath import FENCE_A, _build_cluster

    return _build_cluster(**FENCE_A)


def _pd4_equivocate_inflight():
    scenario = parse_scenario_id("alterbft:equivocate-inflight:adversarial:1:dur3:pd4")
    cluster = build_cluster(build_config(scenario))
    install_adversary(cluster, scenario.profile)
    return cluster


def _chunked_pipelined():
    from tests.test_dissem import CHUNKED_PIPELINED

    return build_cluster(CHUNKED_PIPELINED)


@pytest.mark.parametrize(
    "build",
    [_fence_a, _pd4_equivocate_inflight, _chunked_pipelined],
    ids=["fence-a", "pd4-equivocate-inflight", "chunked-pipelined"],
)
def test_every_committed_height_has_a_verified_certificate(build):
    """Every block any honest replica committed is certified by a logged
    certificate that verifies — however little the replicas kept."""
    cluster = build()
    certified = _certified(cluster, _logged_run(cluster))
    honest = [r for r in cluster.replicas if r.replica_id in cluster.honest_ids]
    committed = {
        replica.ledger.block_at(height).block_hash
        for replica in honest
        for height in range(1, len(replica.ledger))
    }
    assert len(committed) > 40
    assert committed <= certified
    assert check_certified_chain(cluster).ok
    # The replicas themselves hold next to none of those certificates.
    assert max(len(replica.votes.certified) for replica in honest) < len(committed) // 4


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
    def _adversary(self, profile, now=0.0, seed=7):
        scheduler = Scheduler()
        scheduler.run(until=now)
        return ModelBoundedAdversary(profile, NetworkConfig(), scheduler, random.Random(seed))

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
        adversary = self._adversary("stall-large", now=1.2)
        policy = adversary.policy()
        # Crossing the even/odd cut inside the window: held past window end.
        held = policy(0, 1, object(), 50_000, 0.002)
        assert held >= 0.4  # window ends at 1.6, now is 1.2
        # Same side of the cut: model delay untouched.
        assert policy(0, 2, object(), 50_000, 0.002) == 0.002
        assert adversary.stalled == 1

    def test_stall_large_outside_window_untouched(self):
        policy = self._adversary("stall-large", now=3.0).policy()
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

    def test_a_fetched_fork_halts_the_replica_once(self):
        """In the E10 demo replica 0 commits height 1 on the losing branch.
        Its next clean window's stored ancestry reaches height 2 on the
        other branch's block 1: a fork, seen without a fetch.  It reports
        ``fork_detected`` once and halts, instead of fetching every retry
        period for the rest of the run (23 requests, each answer refused)."""
        cluster = build_cluster(build_config(e10_demo_scenario(1)))
        install_adversary(cluster, "calibrated")
        asked = []

        def count_range_requests(src, dst, msg, size):
            if isinstance(msg, BlockRangeRequestMsg):
                asked.append(src)
            return True

        cluster.network.add_filter(count_range_requests)
        cluster.start()
        cluster.run()
        assert cluster.trace.counters["fork_detected"] == 1
        assert cluster.replicas[0].crashed and cluster.replicas[0].ledger.height == 1
        assert 0 not in asked and len(asked) <= 1, asked

    @pytest.mark.slow
    def test_mini_sweep_all_combos_clean(self):
        results = run_sweep(grid(families=("main",), seeds=1), jobs=1, progress=False)
        failing = [r.scenario.scenario_id for r in results if not r.ok]
        assert failing == []


#: sha256 over the sorted ``"<scenario id> <fingerprint>"`` lines of the
#: 116 ``python -m repro.check --smoke`` scenarios, and the E10 demo's
#: fingerprint.  A behaviour-neutral change leaves both untouched.
#:
#: Re-pinned for one fetch path: a missing ancestor is now fetched as the
#: chain above the ledger (``BlockRangeRequestMsg``, one provider) instead
#: of a per-hash ``BlockRequestMsg`` broadcast.  Exactly the 16 scenarios
#: that sent the old request moved — ``alterbft:equivocate`` (calibrated
#: and adversarial, seeds 1 and 2, and seed 1 at pd2/pd4),
#: ``alterbft:equivocate-inflight`` (calibrated and adversarial, seed 1,
#: pd2/pd4) and ``sync-hotstuff:equivocate`` (all four) — and the E10
#: demo, which fetched too.
#:
#: Re-pinned when recovery's snapshot became the fetch's ledger half: a
#: rejoiner sends one range request where it sent a snapshot request and
#: a range request.  Exactly the 12 ``*:crash-recover:*`` scenarios moved
#: (alterbft calibrated and adversarial, seeds 1 and 2, and seed 1 at
#: pd2/pd4; sync-hotstuff calibrated and adversarial, seeds 1 and 2).  The
#: E10 demo moved because AlterBFT's commit rule now reads a clean
#: window whose ancestry sits just above the head on another parent as a
#: fork: replica 0 reports ``fork_detected`` once and halts, without the
#: 23 range requests it sent before.
SMOKE_GRID_DIGEST = "cbbe0ba0b69bfae2c9e77cd4dddb025d104716818ebe0df81700cd3ff3b023f4"
E10_DEMO_FINGERPRINT = "f4c6189651e59e41f6b9e059e8274a5808a26431db3244507a053443fba17acd"


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
