"""Scenario grid for the verification sweep.

A :class:`Scenario` names one fully determined run: protocol × fault
behavior × adversary profile × seed (plus the E10 relay ablation switch,
pipeline depth and the dissemination flag).  Scenarios serialize to
compact ids like ``alterbft:equivocate:adversarial:3`` so a failing run
can be named on the command line and replayed exactly:

    PYTHONPATH=src python -m repro.check --replay alterbft:equivocate:adversarial:3

Two tables say the rest.  :data:`SWEPT`: per behavior, the fault it
injects, the flags it turns on and the invariant it adds — read by
:func:`build_config` and the sweep runner alike.  :data:`FAMILIES`: what
each scenario family crosses, walked by :func:`grid`, the one generator.

The grid keeps most knobs fixed (one faulty replica, one workload shape)
so results are comparable across the sweep; what varies is exactly what
the model lets an adversary vary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..config import ExperimentConfig, NetworkConfig, ProtocolConfig, WorkloadConfig
from ..errors import ConfigError
from ..runner.experiment import standard_protocol_config
from ..runner.registry import protocol_names
from .adversary import PROFILES
from .invariants import InvariantResult, check_bad_vote_attribution, check_guard_flagging

#: Protocols in the default sweep — the synchronous-model pair whose
#: safety depends on the timing assumptions the adversary probes.  The
#: partially synchronous baselines are covered by the cross-protocol
#: safety tests instead (their safety is timing-independent).
PROTOCOLS = ("alterbft", "sync-hotstuff")

#: The single Byzantine/faulty replica.  Replica 1 leads epoch 1 under
#: round-robin rotation, so faulty-leader paths trigger immediately.
FAULTY_ID = 1

#: When the crash behavior fires, simulated seconds.
CRASH_TIME = 1.0

#: When a crash-recover replica comes back up, simulated seconds.  Two
#: seconds of downtime is long enough that the rejoiner genuinely missed
#: committed history and must run the catchup protocol.
REJOIN_TIME = 3.0

#: Checkpoint cadence for the crash-recover scenarios, committed blocks.
#: Small so even short runs cross several checkpoints and exercise both
#: snapshot install and block-store pruning.
CHECKPOINT_K = 4

#: Liveness is only asserted after this instant: late enough for the
#: crash, the stall-large window, and initial epoch churn to play out.
RECOVERY_TIME = 2.0

#: The slow-link gray-failure window, simulated seconds.  Starts after
#: warmup (so the guard's rolling tail is populated with honest samples)
#: and ends well before the horizon (so the sweep observes the cluster
#: stabilizing on the re-certified Δ).
SLOWLINK_START = 1.5
SLOWLINK_END = 3.0

#: Detection slack for the guard-flagging invariant: how long after the
#: violation begins before an unflagged commit counts against the guard.
#: Covers one probe round-trip plus several Δ of commit pipeline — far
#: more than the monitor actually needs (the retro-flagging window soaks
#: up most of the lag), but the invariant should fail on missing
#: *machinery*, not on scheduling jitter.
GUARD_GRACE = 0.1

#: An unflagged in-window commit is excused only when the effective Δ at
#: commit time covers the worst inflation the slow link applies
#: (:data:`repro.faults.behaviors.SLOW_LINK_FACTOR_HIGH` × base Δ) — i.e.
#: the cluster genuinely re-certified its way out of the violation.
GUARD_SAFE_FACTOR = 3.0

#: Probe cadence override for slow-link scenarios: fast enough that the
#: faulty replica's (inflated) probe traffic alone sustains detection
#: even while consensus traffic from it is sparse.
GUARD_PROBE_INTERVAL = 0.02

#: Default simulated horizon per scenario, seconds.
DEFAULT_DURATION = 6.0

#: Workload shape: transactions are individually bigger than the 4 KiB
#: small-message threshold, so every non-empty payload is a *large*
#: message — otherwise the hybrid model's two message classes collapse
#: and the adversary has nothing large to play with.
RATE_TPS = 300.0
TX_SIZE = 6000

#: Protocol sizing and timing for the sweep: f=1 keeps clusters small
#: (n=3 for the 2f+1 protocols) and a short epoch timeout keeps fault
#: recovery — hence the liveness bound and the horizon — tight.
F = 1
DELTA_SMALL = 0.005
DELTA_BIG = 0.1
EPOCH_TIMEOUT = 0.5
WARMUP = 0.5


@dataclass(frozen=True)
class SweptBehavior:
    """One row of :data:`SWEPT`: what a behavior is beyond the fault it names."""

    #: The fault spec injected at :data:`FAULTY_ID` ("" = none).
    fault: str = ""
    #: ``ProtocolConfig`` fields the behavior turns on.
    overrides: Mapping[str, object] = field(default_factory=dict)
    #: An invariant (cluster → result) checked on top of the standard ones.
    extra_check: Optional[Callable[..., InvariantResult]] = None
    #: Whether the liveness bound is asserted.
    bounded_gap: bool = True


#: The behaviors that are more than their fault spec ("none" = the
#: fault-free control); see :func:`swept_row` for every other name.
SWEPT: Dict[str, SweptBehavior] = {
    "none": SweptBehavior(),
    "crash": SweptBehavior(f"crash@{CRASH_TIME}"),
    "crash-recover": SweptBehavior(
        f"crash-recover@{CRASH_TIME}:{REJOIN_TIME}", {"checkpoint_interval": CHECKPOINT_K}
    ),
    # The gray failure legitimately slows commits (Δ escalation scales
    # every timer), so bounded-gap does not apply; what must hold
    # instead is the degradation contract: no silent in-window commit.
    "slow-link": SweptBehavior(
        f"slow-link@{SLOWLINK_START}:{SLOWLINK_END}",
        {"guard_enabled": True, "guard_probe_interval": GUARD_PROBE_INTERVAL},
        extra_check=partial(
            check_guard_flagging,
            violation_window=(SLOWLINK_START, SLOWLINK_END),
            grace=GUARD_GRACE,
            safe_factor=GUARD_SAFE_FACTOR,
        ),
        bounded_gap=False,
    ),
    # The corrupted flood runs with the lazy batched verifier on:
    # bisection must attribute it to exactly the faulty voter (no false,
    # no missed attribution) and exclude it.
    "bad-vote": SweptBehavior(
        "bad-vote",
        {"crypto_batch": True},
        extra_check=partial(check_bad_vote_attribution, faulty_id=FAULTY_ID),
    ),
    # A leader shipping fewer shares than the reconstruction threshold
    # (epoch change must fire), and one corrupting a single victim's
    # share (the Merkle check catches it, the victim pulls from peers):
    # chunked-path only, so they imply the flag even in hand-written ids.
    "withhold_chunks": SweptBehavior("withhold_chunks", {"dissemination": True}),
    "corrupt_chunk": SweptBehavior("corrupt_chunk", {"dissemination": True}),
}


def swept_row(behavior: str) -> SweptBehavior:
    """``behavior``'s row; a name without one (``equivocate``, or a
    hand-written replay id's ``silent``) is the fault spec it spells,
    under the standard invariants."""
    return SWEPT.get(behavior) or SweptBehavior(behavior)


@dataclass(frozen=True)
class Family:
    """One row of :data:`FAMILIES`: what :func:`grid` crosses with the profiles."""

    #: Protocols that can run the family; ``--protocols`` picks among them.
    protocols: Tuple[str, ...]
    #: Names in :data:`SWEPT`, in sweep order.
    behaviors: Tuple[str, ...]
    #: Pipeline depths swept.
    depths: Tuple[int, ...]
    #: Seeds per combo: in the full sweep, in ``--smoke``.
    seeds: Tuple[int, int]
    #: Chunked erasure-coded payloads on.
    dissemination: bool = False
    #: ``--depths`` replaces ``depths``: the family exists to sweep them.
    takes_depths: bool = False


_MAIN = (
    "none", "crash", "crash-recover", "equivocate",
    "withhold_payload", "delay_send", "slow-link", "bad-vote",
)

#: The scenario families, in sweep order.  ``main``: any protocol, and on
#: the default :data:`PROTOCOLS` 2 × 8 × 3 × 7 = 336 scenarios, clearing
#: the 200-scenario acceptance floor.  ``pipelined``: equivocation, blame
#: and epoch change across a window of in-flight blocks is the fault
#: surface pipelining opens, so every behavior runs at every depth, plus
#: the two that need the window (equivocating on block k+1 while k's still
#: runs; certifying a prefix, withholding the suffix): 10 × 3 × 2 × 2 = 120.
#: ``dissem``: the blob-free payload path must hold both for the plain
#: leader and composed with the chained one — 3 × 3 × 2 × 2 = 36.
FAMILIES: Dict[str, Family] = {
    "main": Family(protocol_names(), _MAIN, (1,), (7, 2)),
    "pipelined": Family(
        ("alterbft",), _MAIN + ("equivocate-inflight", "withhold-suffix"), (2, 4), (2, 1),
        takes_depths=True,
    ),
    "dissem": Family(
        ("alterbft",), ("none", "withhold_chunks", "corrupt_chunk"), (1, 2), (2, 1),
        dissemination=True,
    ),
}


@dataclass(frozen=True)
class Scenario:
    """One fully determined verification run."""

    protocol: str
    behavior: str
    profile: str
    seed: int
    relay_headers: bool = True
    duration: float = DEFAULT_DURATION
    pipeline_depth: int = 1
    dissemination: bool = False

    @property
    def scenario_id(self) -> str:
        parts = [self.protocol, self.behavior, self.profile, str(self.seed)]
        if not self.relay_headers:
            parts.append("norelay")
        if self.duration != DEFAULT_DURATION:
            parts.append(f"dur{self.duration:g}")
        if self.pipeline_depth != 1:
            parts.append(f"pd{self.pipeline_depth}")
        if self.dissemination:
            parts.append("dissem")
        return ":".join(parts)


def parse_scenario_id(scenario_id: str) -> Scenario:
    """Inverse of :attr:`Scenario.scenario_id`."""
    parts = scenario_id.split(":")
    if len(parts) < 4:
        raise ConfigError(
            f"bad scenario id {scenario_id!r}: want protocol:behavior:profile:seed[:flags]"
        )
    protocol, behavior, profile = parts[0], parts[1], parts[2]
    try:
        seed = int(parts[3])
    except ValueError:
        raise ConfigError(f"bad scenario seed in {scenario_id!r}") from None
    relay_headers = True
    duration = DEFAULT_DURATION
    pipeline_depth = 1
    dissemination = False
    for flag in parts[4:]:
        if flag == "norelay":
            relay_headers = False
        elif flag == "dissem":
            dissemination = True
        elif flag.startswith("dur"):
            try:
                duration = float(flag[3:])
            except ValueError:
                raise ConfigError(f"bad duration flag {flag!r} in {scenario_id!r}") from None
        elif flag.startswith("pd"):
            try:
                pipeline_depth = int(flag[2:])
            except ValueError:
                raise ConfigError(f"bad pipeline flag {flag!r} in {scenario_id!r}") from None
        else:
            raise ConfigError(f"unknown scenario flag {flag!r} in {scenario_id!r}")
    if profile not in PROFILES:
        raise ConfigError(f"unknown adversary profile {profile!r} in {scenario_id!r}")
    return Scenario(
        protocol=protocol,
        behavior=behavior,
        profile=profile,
        seed=seed,
        relay_headers=relay_headers,
        duration=duration,
        pipeline_depth=pipeline_depth,
        dissemination=dissemination,
    )


def build_config(scenario: Scenario) -> ExperimentConfig:
    """The exact experiment configuration a scenario denotes."""
    row = swept_row(scenario.behavior)
    pconf = standard_protocol_config(
        scenario.protocol,
        f=F,
        delta_small=DELTA_SMALL,
        delta_big=DELTA_BIG,
        epoch_timeout=EPOCH_TIMEOUT,
        relay_headers=scenario.relay_headers,
        pipeline_depth=scenario.pipeline_depth,
        **{"dissemination": scenario.dissemination, **row.overrides},
    )
    return ExperimentConfig(
        protocol=scenario.protocol,
        protocol_config=pconf,
        network_config=NetworkConfig(),
        workload=WorkloadConfig(
            rate=RATE_TPS,
            duration=max(scenario.duration - 1.0, 1.0),
            tx_size=TX_SIZE,
        ),
        seed=scenario.seed,
        max_sim_time=scenario.duration,
        warmup=WARMUP,
        faults=((FAULTY_ID, row.fault),) if row.fault else (),
    )


def liveness_gap_bound(pconf: ProtocolConfig) -> float:
    """Model-derived bound on the worst post-recovery commit gap.

    Worst case: a faulty leader's epoch times out after the (possibly
    once-grown) adaptive timeout, plus the epoch-change exchange and one
    commit cycle — all Δ-scaled — plus fixed scheduling slack.
    """
    return (
        pconf.epoch_timeout_growth**2 * pconf.epoch_timeout
        + 10 * pconf.delta
        + 0.5
    )


def replay_command(scenario: Scenario) -> str:
    """The exact shell command that re-runs one scenario."""
    return f"PYTHONPATH=src python -m repro.check --replay {scenario.scenario_id}"


def grid(
    families: Sequence[str] = tuple(FAMILIES),
    seeds: Optional[int] = None,
    smoke: bool = False,
    protocols: Sequence[str] = PROTOCOLS,
    behaviors: Optional[Sequence[str]] = None,
    profiles: Sequence[str] = PROFILES,
    depths: Optional[Sequence[int]] = None,
) -> List[Scenario]:
    """The scenarios of ``families``: per :data:`FAMILIES` row, protocols ×
    behaviors × profiles × depths × seeds, seed-major within a combo.

    ``seeds`` unset means each family's own count, set means that many in
    every family; ``smoke`` caps either at the family's smoke count.
    ``protocols`` and ``behaviors`` pick among the family's own.
    """
    scenarios = []
    for family in map(FAMILIES.__getitem__, families):
        count = family.seeds[0] if seeds is None else seeds
        if smoke:
            count = min(count, family.seeds[1])
        combos = product(
            [p for p in protocols if p in family.protocols],
            [b for b in behaviors or family.behaviors if b in family.behaviors],
            profiles,
            depths if depths and family.takes_depths else family.depths,
            range(1, count + 1),
        )
        scenarios += [
            Scenario(p, b, profile, seed, pipeline_depth=depth, dissemination=family.dissemination)
            for p, b, profile, depth, seed in combos
        ]
    return scenarios


def e10_demo_scenario(seed: int) -> Scenario:
    """The relay-off ablation: AlterBFT with header relay disabled.

    Without the relay an equivocating leader can split the honest cluster
    onto two chains (E10, paper Section 6.3).  The sweep runner scans
    these seeds until the agreement checker catches the fork, proving the
    harness detects real violations.
    """
    return Scenario(
        protocol="alterbft",
        behavior="equivocate",
        profile="calibrated",
        seed=seed,
        relay_headers=False,
    )
