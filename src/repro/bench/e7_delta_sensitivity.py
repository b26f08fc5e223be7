"""E7 — Sensitivity to the synchrony bound Δ.

Both synchronous-model protocols commit after a 2Δ window, so p50 latency
should track ``2Δ + c`` linearly.  The difference is *which* Δ each may
use: AlterBFT's Δ only needs to cover small messages (milliseconds);
Sync HotStuff's must cover full blocks (hundreds of milliseconds) — this
experiment quantifies the cost of over-provisioning either bound.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..config import ExperimentConfig, WorkloadConfig
from ..runner.experiment import standard_protocol_config
from .claims import REPRODUCED, SAFE, Check, Claim, descents, headline
from .common import DEFAULT_NETWORK, ExperimentOutput, run_and_row

ALTER_DELTAS: Sequence[float] = (0.0025, 0.005, 0.010, 0.020, 0.050)
SYNC_DELTAS: Sequence[float] = (0.050, 0.100, 0.200, 0.400)


def _config(protocol: str, delta: float, duration: float) -> ExperimentConfig:
    pconf = standard_protocol_config(
        protocol, f=1, delta_small=delta, delta_big=delta
    ).with_(delta=delta, epoch_timeout=max(1.0, 10 * delta))
    return ExperimentConfig(
        protocol=protocol,
        protocol_config=pconf,
        network_config=DEFAULT_NETWORK,
        workload=WorkloadConfig(rate=500.0, duration=duration - 1.0, tx_size=512),
        max_sim_time=duration,
        warmup=1.0,
    )


def run(fast: bool = True) -> ExperimentOutput:
    duration = 6.0 if fast else 12.0
    rows = []
    points: Tuple[Tuple[str, Sequence[float]], ...] = (
        ("alterbft", ALTER_DELTAS if not fast else ALTER_DELTAS[::2]),
        ("sync-hotstuff", SYNC_DELTAS if not fast else SYNC_DELTAS[::2]),
    )
    for protocol, deltas in points:
        for delta in deltas:
            rows.append(
                run_and_row(_config(protocol, delta, duration), delta_ms=round(delta * 1e3, 2))
            )
    alter_rows = [r for r in rows if r["protocol"] == "alterbft"]
    slope_num = float(alter_rows[-1]["lat_p50_ms"]) - float(alter_rows[0]["lat_p50_ms"])
    slope_den = float(alter_rows[-1]["delta_ms"]) - float(alter_rows[0]["delta_ms"])
    return ExperimentOutput(
        experiment_id="E7",
        title="Commit latency vs configured Δ",
        rows=rows,
        headline={
            "alterbft_latency_slope_vs_delta": round(slope_num / slope_den, 2),
            "expected_slope": 2.0,
        },
        claims=CLAIMS,
    )


CLAIMS = (
    Claim(
        "Commit latency tracks 2Δ linearly — the choice of which messages "
        "Δ must bound is the whole game.",
        REPRODUCED,
        (
            Check("AlterBFT p50 slope vs Δ",
                  headline("alterbft_latency_slope_vs_delta"), "()", (1.2, 2.8)),
            Check("steps where p50 falls as Δ grows, AlterBFT",
                  descents("lat_p50_ms", "delta_ms", protocol="alterbft"), "==", 0),
            Check("steps where p50 falls as Δ grows, Sync HotStuff",
                  descents("lat_p50_ms", "delta_ms", protocol="sync-hotstuff"), "==", 0),
            Check("lowest p50 / 2Δ",
                  lambda o: min(float(r["lat_p50_ms"]) / (2 * float(r["delta_ms"]))
                                for r in o.rows),
                  ">=", 0.95),
            SAFE,
        ),
    ),
)
