"""E6 — Performance under faults.

Crash and Byzantine leaders at a fixed point in the run; measured:
throughput over the whole window, the longest commit gap (client-visible
service interruption), epoch changes, and — always — post-hoc safety.
AlterBFT recovers via one blame-certificate epoch change whose cost is a
function of small-message time scales, not of Δ_big.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..runner.cluster import build_cluster
from ..runner.experiment import summarize
from .claims import REPRODUCED, SAFE, Check, Claim, cell, headline, matching, over
from .common import ExperimentOutput, make_config

#: (protocol, fault spec) scenarios; replica 1 leads epoch/view 1 everywhere.
SCENARIOS: Tuple[Tuple[str, str], ...] = (
    ("alterbft", "none"),
    ("alterbft", "crash@3.0"),
    ("alterbft", "equivocate"),
    ("alterbft", "withhold_payload"),
    ("alterbft", "silent"),
    ("sync-hotstuff", "crash@3.0"),
    ("sync-hotstuff", "equivocate"),
    ("hotstuff", "crash@3.0"),
    ("pbft", "crash@3.0"),
)


def run(fast: bool = True) -> ExperimentOutput:
    duration = 12.0 if fast else 20.0
    rows: List[Dict[str, object]] = []
    recoveries: Dict[str, float] = {}
    for protocol, fault in SCENARIOS:
        faults = () if fault == "none" else ((1, fault),)
        config = make_config(
            protocol,
            f=1,
            rate=500.0,
            tx_size=512,
            duration=duration,
            warmup=1.0,
            faults=faults,
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run()
        result = summarize(cluster)
        gap = cluster.collector.max_commit_gap(config.warmup, config.max_sim_time)
        row = result.row()
        row["fault"] = fault
        row["max_gap_ms"] = round(gap * 1e3, 1)
        rows.append(row)
        recoveries[f"{protocol}/{fault}"] = gap
    return ExperimentOutput(
        experiment_id="E6",
        title="Throughput and recovery under leader faults",
        rows=rows,
        headline={
            "alterbft_crash_gap_ms": round(recoveries["alterbft/crash@3.0"] * 1e3, 1),
            "alterbft_equivocate_gap_ms": round(recoveries["alterbft/equivocate"] * 1e3, 1),
            "all_safe": all(bool(r["safety_ok"]) for r in rows),
        },
        claims=CLAIMS,
    )


def _fewest_faulty_commits_share(output: ExperimentOutput) -> float:
    """The fewest commits of a faulty AlterBFT run, over the fault-free run's."""
    alter = matching(output.rows, protocol="alterbft")
    baseline = next(r["commits"] for r in alter if r["fault"] == "none")
    return min(r["commits"] for r in alter if r["fault"] != "none") / baseline


_CRASH, _EQUIVOCATE = headline("alterbft_crash_gap_ms"), headline("alterbft_equivocate_gap_ms")

CLAIMS = (
    Claim(
        "Faulty leaders cost one epoch change; recovery time is governed by "
        "the epoch timer, not by Δ_big; safety always holds.",
        REPRODUCED,
        (
            Check("AlterBFT's longest commit gap, leader crash, ms", _CRASH, "<", 5000.0),
            Check("epoch changes after that crash",
                  cell("epoch_changes", protocol="alterbft", fault="crash@3.0"), ">=", 1),
            Check("crash gap / equivocation gap", over(_CRASH, _EQUIVOCATE), ">", 5.0),
            Check("equivocation gap − crash gap, ms",
                  lambda o: _EQUIVOCATE(o) - _CRASH(o), "<", 2500.0),
            Check("fewest commits of a faulty AlterBFT run / fault-free",
                  _fewest_faulty_commits_share, ">=", 0.8),
            SAFE,
        ),
        reading=(
            "Relayed headers expose an equivocating leader within about 2Δ; "
            "a crash waits for the epoch timer."
        ),
    ),
)
