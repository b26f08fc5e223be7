"""Verification harness: invariant checkers, a model-bounded adversarial
network scheduler, and a seeded scenario sweep (``python -m repro.check``).

See DESIGN.md ("Verification harness") for the architecture and
EXPERIMENTS.md (E10) for how the sweep demonstrates the relay ablation.
"""

from .adversary import PROFILES, ModelBoundedAdversary, install_adversary
from .invariants import (
    AGREEMENT,
    BOUNDED_GAP,
    CERTIFIED_CHAIN,
    GUARD_FLAGGING,
    RECOVERY,
    InvariantResult,
    check_agreement,
    check_all,
    check_bounded_gap,
    check_certified_chain,
    check_guard_flagging,
    check_recovery,
    install_certificate_log,
    violations,
)
from .runner import ScenarioResult, main, run_demo, run_scenario, run_sweep
from .scenarios import (
    FAMILIES,
    PROTOCOLS,
    SWEPT,
    Scenario,
    build_config,
    e10_demo_scenario,
    grid,
    liveness_gap_bound,
    parse_scenario_id,
    replay_command,
)

__all__ = [
    "AGREEMENT",
    "BOUNDED_GAP",
    "CERTIFIED_CHAIN",
    "FAMILIES",
    "GUARD_FLAGGING",
    "RECOVERY",
    "SWEPT",
    "InvariantResult",
    "ModelBoundedAdversary",
    "PROFILES",
    "PROTOCOLS",
    "Scenario",
    "ScenarioResult",
    "build_config",
    "check_agreement",
    "check_all",
    "check_bounded_gap",
    "check_certified_chain",
    "check_guard_flagging",
    "check_recovery",
    "e10_demo_scenario",
    "grid",
    "install_adversary",
    "install_certificate_log",
    "liveness_gap_bound",
    "main",
    "parse_scenario_id",
    "replay_command",
    "run_demo",
    "run_scenario",
    "run_sweep",
    "violations",
]
