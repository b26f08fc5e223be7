"""E8 — Protocol comparison table.

The paper's summary table: model, resilience, quorum, analytic commit
latency, plus measured steady-state numbers from one standard
configuration, including per-block message and byte costs (PBFT's
quadratic phases vs HotStuff's linear votes vs AlterBFT's n² small
votes + n payload fan-out).
"""

from __future__ import annotations

from ..runner.experiment import run_experiment
from .claims import (
    COMPARABLE,
    COMPARABLE_X,
    PARTLY,
    REPRODUCED,
    SAFE,
    Check,
    Claim,
    Reader,
    cell,
    over,
)
from .common import ALL_PROTOCOLS, ExperimentOutput, make_config

#: Static, analytic properties per protocol.
ANALYTIC = {
    "alterbft": {
        "model": "hybrid-sync",
        "resilience": "f < n/2",
        "commit_latency": "payload + δ + 2Δ_small",
    },
    "sync-hotstuff": {
        "model": "synchronous",
        "resilience": "f < n/2",
        "commit_latency": "payload + δ + 2Δ_big",
    },
    "hotstuff": {
        "model": "partial-sync",
        "resilience": "f < n/3",
        "commit_latency": "3 × (payload + δ)",
    },
    "pbft": {
        "model": "partial-sync",
        "resilience": "f < n/3",
        "commit_latency": "payload + 2δ",
    },
}


def run(fast: bool = True) -> ExperimentOutput:
    duration = 8.0 if fast else 15.0
    rows = []
    for protocol in ALL_PROTOCOLS:
        config = make_config(protocol, f=1, rate=1000.0, tx_size=512, duration=duration)
        result = run_experiment(config)
        blocks = max(result.committed_blocks, 1)
        totals = result.wire["totals"]
        row = {
            "protocol": protocol,
            **ANALYTIC[protocol],
            "n_at_f1": result.n,
            "tput_tps": round(result.throughput_tps, 1),
            "lat_p50_ms": round(result.latency.p50 * 1e3, 2),
            "lat_p99_ms": round(result.latency.p99 * 1e3, 2),
            "msgs_per_block": round(totals["msgs"] / blocks, 1),
            "kb_per_block": round(totals["bytes"] / blocks / 1024, 1),
            "safety_ok": result.safety_ok,
        }
        rows.append(row)
    return ExperimentOutput(
        experiment_id="E8",
        title="Protocol comparison (f=1, 512 B txs, 1k tps offered)",
        rows=rows,
        headline={
            "alterbft_resilience": "f < n/2",
            "partial_sync_resilience": "f < n/3",
        },
        claims=CLAIMS,
    )


def _p50(protocol: str) -> Reader:
    return cell("lat_p50_ms", protocol=protocol)


CLAIMS = (
    Claim(
        "AlterBFT keeps synchronous resilience (f < n/2) at partially synchronous latency.",
        PARTLY,
        (
            Check("AlterBFT resilience", cell("resilience", protocol="alterbft"), "==", "f < n/2"),
            Check("AlterBFT replicas at f = 1", cell("n_at_f1", protocol="alterbft"), "==", 3),
            Check("HotStuff replicas at f = 1", cell("n_at_f1", protocol="hotstuff"), "==", 4),
            Check("AlterBFT p50 / HotStuff p50",
                  over(_p50("alterbft"), _p50("hotstuff")), "<=", COMPARABLE_X),
            Check("AlterBFT p50 / PBFT p50",
                  over(_p50("alterbft"), _p50("pbft")), "<=", COMPARABLE_X, misses=True),
        ),
        reading=COMPARABLE,
    ),
    Claim(
        "PBFT pays quadratic messages; Sync HotStuff pays 2Δ_big.",
        REPRODUCED,
        (
            Check("PBFT messages per block / HotStuff's",
                  over(cell("msgs_per_block", protocol="pbft"),
                       cell("msgs_per_block", protocol="hotstuff")),
                  ">", 1.0),
            Check("Sync HotStuff p50 / AlterBFT p50",
                  over(_p50("sync-hotstuff"), _p50("alterbft")), ">", 5.0),
            SAFE,
        ),
    ),
)
