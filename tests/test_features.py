"""One protocol table: what each protocol carries is declared once.

A replica class names the optional features it carries (``FEATURES``),
``ProtocolConfig.features()`` names the ones a config asks for, and one
check (``BaseReplica.refuse_uncarried``) refuses the difference — where a
replica is built and in ``ExperimentConfig.validate``.  A flag a protocol
cannot carry is therefore an error, never a row that reports a feature
that did not run.
"""

from __future__ import annotations

import pytest

from repro.baselines.hotstuff import HotStuffReplica
from repro.baselines.pbft import PBFTReplica
from repro.baselines.sync_hotstuff import SyncHotStuffReplica
from repro.bench.common import make_config
from repro.check import main as check_main
from repro.check.scenarios import FAMILIES, build_config, grid
from repro.config import ProtocolConfig
from repro.consensus.validators import ValidatorSet
from repro.core.protocol import AlterBFTReplica
from repro.crypto.keystore import build_cluster_keys
from repro.errors import ConfigError
from repro.runner.cli import main as cli_main
from repro.runner.experiment import run_experiment
from repro.runner.registry import (
    SUBSYSTEMS,
    attach_subsystems,
    protocol_names,
    replica_class_for,
)

#: Each feature, the flag that asks for it, and the setting's name.
FLAGS = {
    "guard": (dict(guard_enabled=True), "guard_enabled"),
    "recovery": (dict(checkpoint_interval=5), "checkpoint_interval"),
    "dissem": (dict(dissemination=True), "dissemination"),
    "pipeline": (dict(pipeline_depth=2), "pipeline_depth"),
}

UNCARRIED = [
    (protocol, feature)
    for protocol, features in (
        ("pbft", FLAGS),
        ("hotstuff", FLAGS),
        ("sync-hotstuff", ("dissem", "pipeline")),
    )
    for feature in features
]


def _build(cls, **flags):
    n = 4 if cls in (HotStuffReplica, PBFTReplica) else 3
    validators = (
        ValidatorSet.partially_synchronous(n, 1)
        if n == 4
        else ValidatorSet.synchronous(n, 1)
    )
    config = ProtocolConfig(n=n, f=1, **flags)
    return cls(0, validators, config, build_cluster_keys("hashsig", n)[0])


def test_each_class_declares_what_it_carries():
    assert AlterBFTReplica.FEATURES == ("pipeline", "recovery", "guard", "dissem")
    assert SyncHotStuffReplica.FEATURES == ("recovery", "guard")
    assert HotStuffReplica.FEATURES == () and PBFTReplica.FEATURES == ()


def test_a_config_names_each_feature_with_its_setting():
    asked = ProtocolConfig(n=3, f=1, pipeline_depth=4, checkpoint_interval=8).features()
    assert asked == {"pipeline": "pipeline_depth=4", "recovery": "checkpoint_interval=8"}
    assert ProtocolConfig(n=3, f=1).features() == {}


@pytest.mark.parametrize("protocol,feature", UNCARRIED)
def test_an_uncarried_feature_is_refused_at_validate(protocol, feature):
    flags, setting = FLAGS[feature]
    with pytest.raises(ConfigError, match=rf"{protocol} does not carry {feature} \({setting}="):
        make_config(protocol, **flags).validate()


@pytest.mark.parametrize("protocol,feature", UNCARRIED)
def test_an_uncarried_feature_is_refused_when_a_replica_is_built(protocol, feature):
    flags, setting = FLAGS[feature]
    with pytest.raises(ConfigError, match=rf"{protocol} does not carry {feature} \({setting}="):
        _build(replica_class_for(protocol), **flags)


@pytest.mark.parametrize("protocol", ["alterbft", "sync-hotstuff"])
def test_what_is_carried_still_validates(protocol):
    for feature in replica_class_for(protocol).FEATURES:
        make_config(protocol, **FLAGS[feature][0]).validate()


def test_crash_recover_runs_wherever_recovery_is_carried():
    for protocol in ("alterbft", "sync-hotstuff"):
        make_config(protocol, faults=((1, "crash-recover@1.0:2.0"),)).validate()
    for protocol in ("hotstuff", "pbft"):
        with pytest.raises(ConfigError, match="does not carry recovery .a fault that restarts"):
            make_config(protocol, faults=((1, "crash-recover@1.0:2.0"),)).validate()


def test_a_restartable_attach_on_a_class_without_recovery_is_refused():
    replica = _build(HotStuffReplica)
    with pytest.raises(ConfigError, match="hotstuff does not carry recovery"):
        attach_subsystems(replica, restartable=True)
    assert replica.subsystems == {}
    replica = _build(SyncHotStuffReplica, guard_enabled=True)
    attach_subsystems(replica, restartable=True)
    assert list(replica.subsystems) == ["recovery", "guard"]


def test_attach_order_is_recovery_guard_dissemination():
    assert [s.name for s in SUBSYSTEMS] == ["recovery", "guard", "dissem"]
    replica = _build(AlterBFTReplica, dissemination=True, guard_enabled=True, checkpoint_interval=4)
    attach_subsystems(replica)
    assert list(replica.subsystems) == ["recovery", "guard", "dissem"]


def test_every_scenario_of_every_family_validates():
    scenarios = grid(families=tuple(FAMILIES), protocols=protocol_names())
    for scenario in scenarios:
        build_config(scenario).validate()
    # The default sweep is what it was; the baselines join main with the
    # six behaviors they carry.
    assert len(grid()) == 492
    baseline = {(s.protocol, s.behavior) for s in scenarios if s.protocol in ("hotstuff", "pbft")}
    assert {b for _, b in baseline} == {
        "none", "crash", "equivocate", "withhold_payload", "delay_send", "bad-vote"
    }


def test_the_baseline_sweep_leaves_out_what_the_baselines_do_not_carry(capsys):
    selection = dict(
        families=("main",),
        protocols=("hotstuff", "pbft"),
        behaviors=("slow-link", "crash-recover"),
        seeds=1,
        profiles=("calibrated",),
    )
    assert grid(**selection) == []
    assert len(grid(carried_only=False, **selection)) == 4
    argv = [
        "--family", "main", "--protocols", "hotstuff,pbft",
        "--behaviors", "slow-link,crash-recover", "--seeds", "1",
        "--profiles", "calibrated", "--no-demo",
    ]
    assert check_main(argv) == 0
    out = capsys.readouterr().out
    assert "4 left out: not carried by their protocol" in out
    assert "slow-link" not in out and "crash-recover" not in out


def test_replaying_an_uncarried_scenario_exits_2_with_the_message(capsys):
    assert check_main(["--replay", "hotstuff:slow-link:calibrated:1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: hotstuff does not carry guard (guard_enabled=True)\n"


def test_the_bench_cli_reports_a_config_error_in_one_line(capsys):
    assert cli_main(["run", "pbft", "--guard", "--duration", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: pbft does not carry guard (guard_enabled=True)\n"
    assert captured.out == ""


def test_epoch_changes_read_from_each_class_keep_their_values():
    """One seeded run per protocol with the epoch-1 leader crashed:
    the values the protocol-name switch in ``summarize`` gave."""
    changes = {
        protocol: run_experiment(
            make_config(protocol, rate=300, duration=4, seed=3, faults=((1, "crash@0.5"),))
        ).epoch_changes
        for protocol in protocol_names()
    }
    assert changes == {"alterbft": 1, "sync-hotstuff": 1, "hotstuff": 3, "pbft": 1}
