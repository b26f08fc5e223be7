"""E9 — Multi-region (WAN) deployment.

Replicas spread across three regions.  Small-message bounds now include
cross-region propagation (tens of milliseconds), but the structure of the
result survives: AlterBFT's Δ covers small messages only, so its commit
wait is 2×(RTT-scale) while Sync HotStuff's must additionally absorb
worst-case large-message transfer across the thin inter-region pipes.
"""

from __future__ import annotations

from ..config import ExperimentConfig, WorkloadConfig
from ..net.delay import WanDelayModel
from ..net.topology import three_regions
from ..runner.experiment import standard_protocol_config
from .common import ALL_PROTOCOLS, DEFAULT_NETWORK, ExperimentOutput, block_bytes, ratio, run_and_row


def run(fast: bool = True) -> ExperimentOutput:
    duration = 10.0 if fast else 20.0
    tx_size, max_batch = 512, 200
    rows = []
    for protocol in ALL_PROTOCOLS:
        n = {"alterbft": 3, "sync-hotstuff": 3, "hotstuff": 4, "pbft": 4}[protocol]
        wan = WanDelayModel(DEFAULT_NETWORK, three_regions(n))
        d_small = wan.small_message_bound()
        d_big = wan.worst_case_bound(block_bytes(max_batch, tx_size))
        pconf = standard_protocol_config(
            protocol, f=1, delta_small=d_small, delta_big=d_big, max_batch=max_batch
        )
        config = ExperimentConfig(
            protocol=protocol,
            protocol_config=pconf,
            network_config=DEFAULT_NETWORK,
            workload=WorkloadConfig(rate=200.0, duration=duration - 2.0, tx_size=tx_size),
            max_sim_time=duration,
            warmup=2.0,
            topology="three-regions",
        )
        rows.append(
            run_and_row(
                config,
                delta_ms=round(pconf.delta * 1e3, 1),
            )
        )

    def p50(proto: str) -> float:
        return next(float(r["lat_p50_ms"]) for r in rows if r["protocol"] == proto)

    return ExperimentOutput(
        experiment_id="E9",
        title="WAN deployment across three regions, f=1",
        rows=rows,
        headline={
            "alterbft_p50_ms": p50("alterbft"),
            "sync_hotstuff_over_alterbft_x": round(
                ratio(p50("sync-hotstuff"), p50("alterbft")), 1
            ),
        },
        notes=(
            "Cross-region propagation raises every protocol's floor, but "
            "the hybrid model's advantage — bounding only small messages — "
            "carries over to the WAN."
        ),
    )
