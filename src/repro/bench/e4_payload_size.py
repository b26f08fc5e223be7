"""E4 — Message size matters: latency and throughput vs block size.

Saturation-mode runs with growing blocks.  AlterBFT's commit latency
grows only with the payload *transfer* time; Sync HotStuff's is dominated
by 2Δ_big, which itself grows with the maximum block size the deployment
allows — so the gap widens exactly as blocks grow, the paper's title
claim.
"""

from __future__ import annotations

from typing import Sequence

from .common import (
    ExperimentOutput,
    block_bytes,
    delta_big,
    make_config,
    ratio,
    run_and_row,
)

#: (max_batch, tx_size) pairs giving roughly 16 KiB → 1 MiB blocks.
FAST_POINTS = ((16, 1024), (128, 1024), (512, 2048))
FULL_POINTS = ((16, 1024), (64, 1024), (128, 1024), (256, 2048), (512, 2048))

PROTOCOLS = ("alterbft", "sync-hotstuff", "hotstuff", "pbft")


def run(fast: bool = True) -> ExperimentOutput:
    points = FAST_POINTS if fast else FULL_POINTS
    duration = 8.0 if fast else 15.0
    rows = []
    for max_batch, tx_size in points:
        size = block_bytes(max_batch, tx_size)
        for protocol in PROTOCOLS:
            config = make_config(
                protocol,
                f=1,
                rate=None,  # saturation
                tx_size=tx_size,
                max_batch=max_batch,
                duration=duration,
                warmup=2.0,
            )
            rows.append(
                run_and_row(
                    config,
                    block_kb=round(size / 1024, 1),
                    delta_big_ms=round(delta_big(size) * 1e3, 1),
                )
            )
        # The chunked twin of the alterbft row: growing blocks are where
        # erasure-coded dissemination pays — the leader ships each
        # replica one share instead of the whole blob.
        chunked = make_config(
            "alterbft",
            f=1,
            rate=None,  # saturation
            tx_size=tx_size,
            max_batch=max_batch,
            duration=duration,
            warmup=2.0,
            dissemination=True,
        )
        rows.append(
            run_and_row(
                chunked,
                block_kb=round(size / 1024, 1),
                delta_big_ms=round(delta_big(size) * 1e3, 1),
                variant="chunked",
            )
        )

    def pick(proto: str, kb: float, key: str, variant: str = "") -> float:
        return next(
            float(r[key])
            for r in rows
            if r["protocol"] == proto
            and r["block_kb"] == kb
            and r.get("variant", "") == variant
        )

    biggest = max(r["block_kb"] for r in rows)
    gap = ratio(
        pick("sync-hotstuff", biggest, "blk_lat_p50_ms"),
        pick("alterbft", biggest, "blk_lat_p50_ms"),
    )
    return ExperimentOutput(
        experiment_id="E4",
        title="Latency/throughput vs block size (saturation)",
        rows=rows,
        headline={
            "largest_block_kb": biggest,
            "sync_hotstuff_over_alterbft_at_largest_x": round(gap, 1),
            "alterbft_egress_share_at_largest": pick(
                "alterbft", biggest, "leader_egress_share"
            ),
            "alterbft_chunked_egress_share_at_largest": pick(
                "alterbft", biggest, "leader_egress_share", variant="chunked"
            ),
        },
        notes=(
            "The latency gap between AlterBFT and Sync HotStuff widens "
            "with block size because only Sync HotStuff's Δ must cover "
            "block delivery — message size matters."
        ),
    )
