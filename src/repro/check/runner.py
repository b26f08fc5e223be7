"""Seed-sweep runner: execute scenarios, check invariants, report.

``python -m repro.check`` runs every scenario family in
:data:`~repro.check.scenarios.FAMILIES` — ``main`` (336 scenarios across
{AlterBFT, Sync HotStuff} × {fault behaviors} × {adversary profiles} ×
seeds), ``pipelined`` (120 alterbft scenarios at pipeline depths 2 and
4, adding the cross-in-flight attacks) and ``dissem`` (36 alterbft
scenarios with chunked erasure-coded payloads on, adding chunk
withholding and corruption); ``--family`` picks among them — expecting
**zero** invariant violations, then demonstrates that
the harness detects real violations by re-running the E10 relay-off
ablation until the agreement checker catches the fork — printing a seed
and the exact replay command, and proving determinism by re-running the
failing seed and comparing trace fingerprints byte for byte.

Scenario execution is a pure function of the scenario (no shared state),
so the sweep parallelizes over processes.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..runner.cluster import build_cluster
from ..runner.registry import protocol_names
from .adversary import PROFILES, install_adversary
from .invariants import AGREEMENT, InvariantResult, check_all, install_certificate_log, violations
from .scenarios import (
    FAMILIES,
    PROTOCOLS,
    RECOVERY_TIME,
    Scenario,
    build_config,
    e10_demo_scenario,
    grid,
    liveness_gap_bound,
    parse_scenario_id,
    replay_command,
    swept_row,
)

#: How many seeds the E10 demonstration scans before giving up.
DEMO_SEED_LIMIT = 20


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one scenario run (picklable for the process pool)."""

    scenario: Scenario
    results: Tuple[InvariantResult, ...]
    fingerprint: str
    committed_blocks: int

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def violations(self) -> List[InvariantResult]:
        return violations(self.results)


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Run one scenario end to end and check every applicable invariant.

    Liveness is only asserted on model-conforming runs (relay on): the
    relay-off ablation deliberately breaks the protocol, and its expected
    failure mode is agreement, not throughput.  What else the behavior
    adds or waives is its :data:`~repro.check.scenarios.SWEPT` row.
    """
    config = build_config(scenario)
    cluster = build_cluster(config)
    install_adversary(cluster, scenario.profile)
    install_certificate_log(cluster)
    cluster.start()
    cluster.run()
    row = swept_row(scenario.behavior)
    if row.bounded_gap and scenario.relay_headers:
        results = check_all(
            cluster,
            recovery_time=RECOVERY_TIME,
            gap_bound=liveness_gap_bound(config.protocol_config),
        )
    else:
        results = check_all(cluster)
    if row.extra_check is not None:
        results.append(row.extra_check(cluster))
    return ScenarioResult(
        scenario=scenario,
        results=tuple(results),
        fingerprint=cluster.fingerprint(),
        committed_blocks=cluster.collector.committed_blocks(),
    )


def run_sweep(
    grid: Sequence[Scenario], jobs: int = 1, progress: bool = True
) -> List[ScenarioResult]:
    """Run a scenario grid, optionally across worker processes."""
    results: List[ScenarioResult] = []
    if jobs <= 1:
        iterator = map(run_scenario, grid)
    else:
        pool = ProcessPoolExecutor(max_workers=jobs)
        iterator = pool.map(run_scenario, grid)
    try:
        for index, result in enumerate(iterator, start=1):
            results.append(result)
            if progress and (not result.ok or index % 25 == 0 or index == len(grid)):
                mark = "ok " if result.ok else "FAIL"
                print(
                    f"  [{index}/{len(grid)}] {mark} {result.scenario.scenario_id}",
                    flush=True,
                )
    finally:
        if jobs > 1:
            pool.shutdown()
    return results


def run_demo(seed_limit: int = DEMO_SEED_LIMIT) -> Optional[Tuple[ScenarioResult, bool]]:
    """Reproduce the E10 relay-off agreement violation.

    Scans seeds in order until the agreement checker flags a fork, then
    re-runs that exact seed and compares fingerprints.  Returns the
    failing result and whether the re-run was byte-identical, or None if
    no seed forked within the limit.
    """
    for seed in range(1, seed_limit + 1):
        result = run_scenario(e10_demo_scenario(seed))
        if any(r.name == AGREEMENT and not r.ok for r in result.results):
            rerun = run_scenario(result.scenario)
            return result, rerun.fingerprint == result.fingerprint
    return None


def _print_report(results: Sequence[ScenarioResult]) -> int:
    failed = [r for r in results if not r.ok]
    for result in failed:
        print(f"\nVIOLATION in {result.scenario.scenario_id}:")
        for violation in result.violations:
            print(f"  {violation}")
        print(f"  replay: {replay_command(result.scenario)}")
        print(f"  fingerprint: {result.fingerprint}")
    verdict = "PASS" if not failed else "FAIL"
    print(
        f"\n{verdict}: {len(results) - len(failed)}/{len(results)} scenarios satisfied "
        "agreement, certified-chain, height-agreement, certified-prefix, bounded-gap, "
        "recovery, guard-flagging, and bad-vote-attribution invariants"
    )
    return len(failed)


def _run_replay(scenario_id: str) -> int:
    scenario = parse_scenario_id(scenario_id)
    print(f"replaying {scenario.scenario_id} ...")
    result = run_scenario(scenario)
    for invariant in result.results:
        print(f"  {invariant}")
    print(f"  committed blocks: {result.committed_blocks}")
    print(f"  fingerprint: {result.fingerprint}")
    return 0 if result.ok else 1


def _csv(value: str) -> List[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _require_known(what: str, given: Sequence[str], known: Tuple[str, ...]) -> None:
    for name in given:
        if name not in known:
            raise ConfigError(f"unknown {what} {name!r}; known: {known}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Sweep seeded fault/adversary scenarios and check consensus invariants.",
    )
    parser.add_argument(
        "--family",
        type=_csv,
        default=list(FAMILIES),
        help=f"comma-separated scenario families (default {','.join(FAMILIES)})",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=None,
        help="seeds per combo in every selected family (default: each family's own — "
        + ", ".join(f"{name} {family.seeds[0]}" for name, family in FAMILIES.items())
        + ")",
    )
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    parser.add_argument(
        "--protocols", type=_csv, default=list(PROTOCOLS), help="comma-separated protocols"
    )
    parser.add_argument(
        "--behaviors",
        type=_csv,
        default=None,
        help="comma-separated behaviors (default: every behavior each family knows)",
    )
    parser.add_argument(
        "--profiles", type=_csv, default=list(PROFILES), help="comma-separated adversary profiles"
    )
    parser.add_argument(
        "--depths",
        type=_csv,
        default=None,
        help="comma-separated pipeline depths for the pipelined family (default 2,4)",
    )
    parser.add_argument(
        "--replay", metavar="SCENARIO_ID", help="re-run one scenario and print its verdict"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI sweep: each family's smoke seed count, calibrated+adversarial profiles",
    )
    parser.add_argument(
        "--no-demo",
        action="store_true",
        help="skip the E10 relay-off violation demonstration",
    )
    parser.add_argument(
        "--list", action="store_true", help="print the scenario grid and exit"
    )
    args = parser.parse_args(argv)

    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.replay:
        return _run_replay(args.replay)

    profiles = args.profiles
    if args.smoke:
        profiles = [p for p in profiles if p != "stall-large"]
    _require_known("family", args.family, tuple(FAMILIES))
    _require_known("protocol", args.protocols, protocol_names())
    swept = tuple(dict.fromkeys(b for f in FAMILIES.values() for b in f.behaviors))
    _require_known("behavior", args.behaviors or (), swept)
    try:
        depths = [int(d) for d in args.depths or ()]
    except ValueError:
        raise ConfigError(f"bad --depths value in {args.depths!r}") from None
    for depth in depths:
        if depth < 2:
            raise ConfigError(f"--depths entries must be >= 2, got {depth}")

    selection = dict(seeds=args.seeds, smoke=args.smoke, protocols=args.protocols,
                     behaviors=args.behaviors, profiles=profiles, depths=depths)
    parts = {name: grid(families=(name,), **selection) for name in FAMILIES if name in args.family}
    scenarios = [scenario for part in parts.values() for scenario in part]
    if args.list:
        for scenario in scenarios:
            print(scenario.scenario_id)
        return 0
    selected = len(grid(families=tuple(parts), carried_only=False, **selection))
    if not selected:
        raise ConfigError(
            "empty scenario grid — check --family/--seeds/--protocols/--behaviors/--profiles"
        )

    counts = " + ".join(f"{len(part)} {name}" for name, part in parts.items())
    print(f"repro.check: sweeping {len(scenarios)} scenarios ({counts}, jobs={args.jobs})")
    if selected > len(scenarios):
        print(f"  {selected - len(scenarios)} left out: not carried by their protocol")
    results = run_sweep(scenarios, jobs=args.jobs)
    failures = _print_report(results)

    demo_ok = True
    if not args.no_demo:
        print("\nE10 demonstration (alterbft, header relay OFF, equivocating leader):")
        demo = run_demo()
        if demo is None:
            print(f"  no agreement violation within {DEMO_SEED_LIMIT} seeds — expected a fork!")
            demo_ok = False
        else:
            result, identical = demo
            agreement = next(r for r in result.results if r.name == AGREEMENT)
            print(f"  VIOLATION reproduced at {result.scenario.scenario_id}")
            print(f"    {agreement}")
            print(f"    replay: {replay_command(result.scenario)}")
            print(f"    fingerprint: {result.fingerprint}")
            print(f"    re-run byte-identical: {identical}")
            demo_ok = identical

    return 0 if failures == 0 and demo_ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
