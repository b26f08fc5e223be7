"""E4 — Message size matters: latency and throughput vs block size.

Saturation-mode runs with growing blocks, all four protocols, plus an
AlterBFT twin with erasure-coded dissemination at each size.  Sync
HotStuff's Δ must bound the largest block the deployment allows;
AlterBFT's bounds small messages only.
"""

from __future__ import annotations

import operator
from typing import Callable, Sequence

from .claims import PARTLY, SAFE, Check, Claim, Reader, descents, headline, matching
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

    def pick(proto: str, kb: float, key: str, variant: object = None) -> float:
        return float(matching(rows, protocol=proto, block_kb=kb, variant=variant)[0][key])

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
            "alterbft_egress_share_at_largest": pick("alterbft", biggest, "leader_egress_share"),
            "alterbft_chunked_egress_share_at_largest": pick(
                "alterbft", biggest, "leader_egress_share", "chunked"
            ),
        },
        claims=CLAIMS,
    )


def _gap_growth(how: Callable[[float, float], float]) -> Reader:
    """``how(gap at the largest block, gap at the smallest)``, each gap
    ``how(Sync HotStuff, AlterBFT)`` block p50 on the blob rows."""

    def read(output: ExperimentOutput) -> float:
        def gap(kb: object) -> float:
            blob = matching(output.rows, block_kb=kb, variant=None)
            by = {r["protocol"]: float(r["blk_lat_p50_ms"]) for r in blob}
            return how(by["sync-hotstuff"], by["alterbft"])

        sizes = sorted({r["block_kb"] for r in output.rows})
        return how(gap(sizes[-1]), gap(sizes[0]))

    return read


CLAIMS = (
    Claim(
        "The AlterBFT / Sync HotStuff latency gap widens with message size (title claim).",
        PARTLY,
        (
            Check("Sync HotStuff / AlterBFT block p50, largest block",
                  headline("sync_hotstuff_over_alterbft_at_largest_x"), ">", 4.0),
            Check("Sync HotStuff block p50 falls as blocks grow (steps)",
                  descents("blk_lat_p50_ms", "block_kb", protocol="sync-hotstuff"), "==", 0),
            Check("gap in ms, largest block − smallest", _gap_growth(operator.sub), ">", 0.0),
            Check("gap as a ratio, largest block / smallest",
                  _gap_growth(operator.truediv), ">", 1.0, misses=True),
            SAFE,
        ),
        reading=(
            "The gap widens in ms, since only Sync HotStuff's Δ covers block "
            "delivery; as a ratio it narrows, since AlterBFT's latency grows "
            "with the payload transfer. The 16.9 KB `chunked` row reads a "
            "latency of 0: no transaction submitted after the warmup commits."
        ),
    ),
)
