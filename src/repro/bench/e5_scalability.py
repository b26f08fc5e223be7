"""E5 — Scalability: latency and throughput vs fault budget f.

At equal f the synchronous-model protocols run 2f+1 replicas while the
partially synchronous ones need 3f+1; each f also runs an AlterBFT twin
with erasure-coded dissemination.
"""

from __future__ import annotations

from typing import Sequence

from .claims import NOT_TESTED, REPRODUCED, SAFE, Check, Claim, cell, headline, matching
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

    def col(proto: str, key: str, variant: object = None) -> float:
        return float(matching(rows, protocol=proto, f=largest, variant=variant)[0][key])

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
                "alterbft", "leader_egress_share", "chunked"
            ),
        },
        claims=CLAIMS,
    )


def _wrong_replica_counts(output: ExperimentOutput) -> int:
    """Rows whose n is not 2f+1 (synchronous models) or 3f+1 (partial synchrony)."""
    k = {"alterbft": 2, "sync-hotstuff": 2, "hotstuff": 3, "pbft": 3}
    return sum(1 for r in output.rows if r["n"] != k[r["protocol"]] * r["f"] + 1)


CLAIMS = (
    Claim(
        "At equal f, AlterBFT runs 2f+1 replicas where partially synchronous "
        "BFT needs 3f+1, and degrades gracefully as f grows.",
        REPRODUCED,
        (
            Check("rows whose n is not 2f+1 / 3f+1", _wrong_replica_counts, "==", 0),
            Check("AlterBFT throughput at the largest f, tx/s",
                  lambda o: cell("tput_tps", protocol="alterbft", f=o.headline["f"])(o),
                  ">", 500.0),
            Check("AlterBFT p50 at the largest f, ms", headline("alterbft_p50_ms"), "<", 100.0),
            SAFE,
        ),
    ),
    Claim(
        "With its smaller fan-out, AlterBFT has higher throughput than "
        "partially synchronous BFT.",
        NOT_TESTED,
        reading=(
            "Every run here, and in E3 and E8, offers a load below every "
            "protocol's knee, so the throughput columns agree within a few "
            "percent. The saturated sweep is ROADMAP item 10."
        ),
    ),
)
