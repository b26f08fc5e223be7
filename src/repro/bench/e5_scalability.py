"""E5 — Scalability: latency and throughput vs fault budget f.

At equal f the synchronous-model protocols run 2f+1 replicas while the
partially synchronous ones need 3f+1 — fewer replicas means a smaller
leader fan-out and fewer votes, which is where AlterBFT's throughput
advantage over HotStuff/PBFT comes from in the paper's comparison.
"""

from __future__ import annotations

from typing import Sequence

from .common import ALL_PROTOCOLS, ExperimentOutput, make_config, run_and_row

FAST_FS: Sequence[int] = (1, 2, 4)
FULL_FS: Sequence[int] = (1, 2, 4, 8)


def run(fast: bool = True) -> ExperimentOutput:
    fs = FAST_FS if fast else FULL_FS
    duration = 6.0 if fast else 10.0
    rows = []
    for f in fs:
        for protocol in ALL_PROTOCOLS:
            # The leader-egress share column is E5's bandwidth story — how
            # leader fan-out concentrates egress as the cluster grows.
            config = make_config(protocol, f=f, rate=1000.0, tx_size=512, duration=duration)
            rows.append(run_and_row(config))
        # The chunked variant: same operating point with erasure-coded
        # pull-based dissemination on — the leader-egress flattening the
        # subsystem exists to buy, measured on the same axis.
        chunked = make_config(
            "alterbft",
            f=f,
            rate=1000.0,
            tx_size=512,
            duration=duration,
            dissemination=True,
        )
        rows.append(run_and_row(chunked, variant="chunked"))
    largest = max(fs)

    def col(proto: str, key: str, variant: str = "") -> float:
        return next(
            float(r[key])
            for r in rows
            if r["protocol"] == proto
            and r["f"] == largest
            and r.get("variant", "") == variant
        )

    return ExperimentOutput(
        experiment_id="E5",
        title="Scalability with the fault budget f",
        rows=rows,
        headline={
            "f": largest,
            "alterbft_n": int(col("alterbft", "n")),
            "hotstuff_n": int(col("hotstuff", "n")),
            "alterbft_p50_ms": col("alterbft", "lat_p50_ms"),
            "hotstuff_p50_ms": col("hotstuff", "lat_p50_ms"),
            "alterbft_leader_egress_share": col("alterbft", "leader_egress_share"),
            "alterbft_chunked_leader_egress_share": col(
                "alterbft", "leader_egress_share", variant="chunked"
            ),
        },
        notes=(
            "Same f, fewer replicas: 2f+1 vs 3f+1 — the resilience "
            "advantage of the (hybrid) synchronous model in replica count. "
            "The chunked variant rows show erasure-coded dissemination "
            "flattening the leader's egress share at each cluster size."
        ),
    )
