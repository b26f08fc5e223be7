"""E11 — analytic model vs simulation (reconstruction-specific).

Compares the closed-form latency decomposition the paper's argument
rests on (:mod:`repro.analysis.models`) with the discrete-event
simulation at saturation: per protocol, and for the AlterBFT/Sync
HotStuff gap.
"""

from __future__ import annotations

from ..analysis.models import PerformanceModel
from ..runner.experiment import run_experiment
from .claims import REPRODUCED, SAFE, Check, Claim, Reader, headline, least, most, over
from .common import (
    ALL_PROTOCOLS,
    DEFAULT_NETWORK,
    ExperimentOutput,
    block_bytes,
    delta_big,
    make_config,
)


def run(fast: bool = True) -> ExperimentOutput:
    duration = 8.0 if fast else 14.0
    tx_size, max_batch = 1024, 64
    size = block_bytes(max_batch, tx_size)
    d_big = delta_big(size)
    model = PerformanceModel(DEFAULT_NETWORK)
    rows = []
    for protocol in ALL_PROTOCOLS:
        config = make_config(
            protocol,
            f=1,
            rate=None,  # saturation: blocks are full, matching the model
            tx_size=tx_size,
            max_batch=max_batch,
            duration=duration,
            warmup=2.0,
        )
        result = run_experiment(config)
        prediction = model.predict(
            protocol, config.protocol_config, size, d_big, txs_per_block=max_batch
        )
        measured_lat = result.block_latency.p50
        row = prediction.row()
        row.update(
            {
                "meas_lat_ms": round(measured_lat * 1e3, 2),
                "meas_tput_tps": round(result.throughput_tps, 1),
                "lat_err_x": round(
                    max(measured_lat, 1e-9) / max(prediction.commit_latency, 1e-9), 2
                ),
                "safety_ok": result.safety_ok,
            }
        )
        rows.append(row)
    predicted_gap = model.latency_gap(
        make_config("alterbft", max_batch=max_batch, tx_size=tx_size).protocol_config,
        make_config("sync-hotstuff", max_batch=max_batch, tx_size=tx_size).protocol_config,
        size,
        d_big,
    )
    by = {r["protocol"]: r for r in rows}
    measured_gap = by["sync-hotstuff"]["meas_lat_ms"] / by["alterbft"]["meas_lat_ms"]
    return ExperimentOutput(
        experiment_id="E11",
        title="Analytic model vs simulation (block latency, saturation)",
        rows=rows,
        headline={
            "predicted_gap_x": round(predicted_gap, 1),
            "measured_gap_x": round(measured_gap, 1),
        },
        claims=CLAIMS,
    )


def _tput_ratio(pick) -> Reader:
    """``pick`` of measured over predicted throughput, across protocols."""
    return lambda o: pick(float(r["meas_tput_tps"]) / float(r["pred_tput_tps"]) for r in o.rows)


CLAIMS = (
    Claim(
        "The paper's latency decomposition predicts the measured numbers "
        "(reconstruction-specific validation of the simulator).",
        REPRODUCED,
        (
            Check("predicted gap / measured gap",
                  over(headline("predicted_gap_x"), headline("measured_gap_x")), "[]", (0.5, 2.0)),
            Check("measured / predicted block p50, lowest", least("lat_err_x"), ">=", 1 / 3),
            Check("measured / predicted block p50, highest", most("lat_err_x"), "<=", 3.0),
            Check("measured / predicted throughput, lowest", _tput_ratio(min), ">=", 0.3),
            Check("measured / predicted throughput, highest", _tput_ratio(max), "<=", 3.0),
            SAFE,
        ),
    ),
)
