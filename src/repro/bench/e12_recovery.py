"""E12 — Crash recovery and state transfer (reconstruction-specific).

A replica crashes at a fixed time, stays down while the cluster keeps
committing, then restarts and runs the catchup protocol: WAL replay,
status round, and one certified block-range fetch whose prefix up to the
checkpoint installs into the ledger as the snapshot.  Measured:
*time-to-catchup* (restart → caught up) as a function of how much
history the replica missed and of the checkpoint cadence K, for AlterBFT
and Sync HotStuff.  Safety is checked post hoc on every run — including
that the rejoined ledger equals the honest ledgers.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..runner.cluster import build_cluster, check_safety
from .claims import REPRODUCED, Check, Claim, failing, matching, most
from .common import ExperimentOutput, make_config

#: The crashing replica (leads epoch 1, so the crash also exercises an
#: epoch change) and when it goes down.
FAULTY_ID = 1
T_DOWN = 1.0

#: Simulated seconds the cluster runs on after the rejoin; long enough
#: for catchup plus steady-state confirmation.
TAIL = 3.0

#: Downtime sweep at the base checkpoint cadence, seconds.
DOWNTIMES = (1.0, 2.0, 3.0)
DOWNTIMES_FAST = (1.0, 2.0)

#: Checkpoint-cadence sweep at the base downtime, committed blocks.
INTERVALS = (2, 4, 8, 16)
INTERVALS_FAST = (4, 16)

#: Base point shared by both sweeps.
BASE_DOWNTIME = 2.0
BASE_INTERVAL = 4

PROTOCOLS = ("alterbft", "sync-hotstuff")


def _run_one(protocol: str, downtime: float, interval: int) -> Dict[str, object]:
    t_up = T_DOWN + downtime
    config = make_config(
        protocol,
        f=1,
        rate=400.0,
        tx_size=512,
        duration=t_up + TAIL,
        warmup=0.5,
        faults=((FAULTY_ID, f"crash-recover@{T_DOWN}:{t_up}"),),
        checkpoint_interval=interval,
    )
    cluster = build_cluster(config)
    cluster.start()
    cluster.run()

    joiner = cluster.replicas[FAULTY_ID]
    manager = joiner.subsystems.get("recovery")
    assert manager is not None
    caught = manager.caught_up_at
    honest = [r for r in cluster.replicas if r.replica_id in cluster.honest_ids]
    # History the rejoiner missed: blocks an honest replica committed
    # while it was down.
    witness = honest[0].replica_id
    missed = sum(
        1
        for t, *_ in cluster.collector.commit_records_by_replica.get(witness, [])
        if T_DOWN <= t < t_up
    )
    # Converged: the joiner's ledger is prefix-consistent with every
    # honest ledger and its head is at (or within in-flight distance of)
    # the honest tip at the horizon.
    lag = max(r.ledger.height for r in honest) - joiner.ledger.height
    converged = (
        caught is not None
        and lag <= 3
        and check_safety(cluster.replicas, cluster.honest_ids | {FAULTY_ID})
    )
    return {
        "protocol": protocol,
        "K": interval,
        "downtime_s": downtime,
        "blocks_missed": missed,
        "catchup_ms": round((caught - t_up) * 1e3, 1) if caught is not None else "stalled",
        "fetch_retries": manager.fetch_retries,
        "rejoined_height": joiner.ledger.height,
        "converged": converged,
    }


def run(fast: bool = True) -> ExperimentOutput:
    downtimes = DOWNTIMES_FAST if fast else DOWNTIMES
    intervals = INTERVALS_FAST if fast else INTERVALS
    points: List[Tuple[str, float, int]] = []
    for protocol in PROTOCOLS:
        for downtime in downtimes:
            points.append((protocol, downtime, BASE_INTERVAL))
        for interval in intervals:
            if (protocol, BASE_DOWNTIME, interval) not in points:
                points.append((protocol, BASE_DOWNTIME, interval))
    rows = [_run_one(*point) for point in points]

    def catchup_at(protocol: str) -> object:
        (base,) = matching(rows, protocol=protocol, downtime_s=BASE_DOWNTIME, K=BASE_INTERVAL)
        return base["catchup_ms"]

    return ExperimentOutput(
        experiment_id="E12",
        title="Crash recovery: time-to-catchup vs history missed and K",
        rows=rows,
        headline={
            "alterbft_catchup_ms": catchup_at("alterbft"),
            "sync_hotstuff_catchup_ms": catchup_at("sync-hotstuff"),
            "all_converged": all(bool(r["converged"]) for r in rows),
        },
        claims=CLAIMS,
    )


CLAIMS = (
    Claim(
        "Crashed replicas rejoin via checkpoint-anchored state transfer "
        "without re-executing history; catchup cost is a large-message "
        "transfer, never a safety risk (reconstruction-specific extension).",
        REPRODUCED,
        (
            Check("rejoiners not converged to the honest ledger", failing("converged"), "==", 0),
            Check("stalled catchups", lambda o: len(matching(o.rows, catchup_ms="stalled")),
                  "==", 0),
            Check("slowest catchup, ms", most("catchup_ms"), "<", 2500.0),
        ),
        reading=(
            "Sync HotStuff's 1 s-downtime outlier is the rejoin racing the "
            "crash-triggered epoch change: the rejoiner misses the blame "
            "certificate while down and gets it one epoch timeout later, in "
            "answer to its own blame."
        ),
    ),
)
