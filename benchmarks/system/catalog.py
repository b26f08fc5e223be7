"""What the system benchmark runs and what it reports.

Pure data plus two small statistics helpers; imported by the runner, the
workload child and the smoke check, so the names here are the single
source the emitted metrics and ``BENCHMARK.json`` are checked against.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

#: Seconds one run measures (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 12

#: Δ used by every workload: the calibrated small-message bound of
#: ``NetworkConfig()`` that every E-experiment runs with.
DELTA = 0.005

#: Seconds of load before the measured window on the TCP workloads.
TCP_WARMUP = 2.0

#: Fast-path flags, as ``ProtocolConfig`` overrides.
FASTPATH = {"crypto_batch": True, "crypto_aggregate": True}
ALLFLAGS = {
    **FASTPATH,
    "dissemination": True,
    "pipeline_depth": 4,
    "checkpoint_interval": 20,
    "guard_enabled": True,
}

#: name → parameters.  ``kind`` picks the driver (loopback TCP or the
#: simulator); ``limit`` is the latency limit in that driver's clock.
#: ``sim_per_wall`` converts ``--seconds`` into simulated seconds so that a
#: sim workload runs for about ``--seconds`` of wall time on the reference
#: 2-core box while staying a pure function of (seed, seconds).
WORKLOADS: Dict[str, dict] = {
    "tcp_schnorr_small": dict(
        kind="tcp",
        why="real sockets + real Schnorr, open loop 150 tx/s x 256 B: crypto does nearly all the work",
        scheme="schnorr",
        flags={},
        loop="open",
        rate=150.0,
        tx_size=256,
        limit=5.0,
    ),
    "tcp_schnorr_fastpath": dict(
        kind="tcp",
        why="same load with crypto_batch + crypto_aggregate: the crypto layer used through its batch/aggregate path",
        scheme="schnorr",
        flags=FASTPATH,
        loop="open",
        rate=150.0,
        tx_size=256,
        limit=5.0,
    ),
    "tcp_hashsig_bulk": dict(
        kind="tcp",
        why="closed loop, waves of 4000 x 1 KiB tx, signatures ~free: codec + transport + mempool do the work",
        scheme="hashsig",
        flags={},
        loop="closed",
        wave=4000,
        waves_per_second=2.0,
        tx_size=1024,
        limit=5.0,
    ),
    "sim_cloud_n7": dict(
        kind="sim",
        why="simulated single-AZ cloud, n=7, Poisson 2000 tx/s x 512 B: scheduler + simnet + handlers; behaviour fence",
        f=3,
        rate=2000.0,
        tx_size=512,
        flags={},
        limit=1.0,
        sim_per_wall=0.75,
        crash=False,
    ),
    "sim_allflags_n9_crash": dict(
        kind="sim",
        why="n=9 with every optional layer on and the epoch-1 leader crashed mid-run: compounded flags + fault schedule",
        f=4,
        rate=1000.0,
        tx_size=512,
        flags=ALLFLAGS,
        limit=5.0,
        sim_per_wall=0.85,
        crash=True,
    ),
}

#: End-to-end metrics: (name, unit, better, bound).  One bound per metric,
#: so it is the loosest any workload needs (see README for the per-workload
#: expectation).  Every workload reports every one of them, never as 0.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("commit_latency_p50_ms", "ms", "lower", 0.25),
    ("commit_latency_p99_ms", "ms", "lower", 0.25),
    ("goodput_tx_s", "1/s", "higher", 0.25),
    ("cpu_s_per_ktx", "s", "lower", 0.25),
    ("wire_bytes_per_tx", "bytes", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: Layers whose self times make up the traced CPU (plus the harness's own
#: spans and the unattributed remainder).
LAYERS = (
    "codec",
    "crypto",
    "core",
    "consensus",
    "mempool",
    "transport",
    "simnet",
    "sim",
    "wire",
    "dissem",
    "guard",
    "recovery",
)

#: Per-layer metrics: (name, unit, better).  Reported by the traced run.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("codec.encode_calls", "count", "lower"),
    ("codec.encode_s", "s", "lower"),
    ("codec.decode_calls", "count", "lower"),
    ("codec.decode_s", "s", "lower"),
    ("codec.size_calls", "count", "lower"),
    ("codec.size_s", "s", "lower"),
    ("codec.bytes_encoded", "bytes", "lower"),
    ("codec.bytes_decoded", "bytes", "lower"),
    ("codec.size_cache_hit_ratio", "ratio", "higher"),
    ("crypto.sign_calls", "count", "lower"),
    ("crypto.sign_s", "s", "lower"),
    ("crypto.verify_calls", "count", "lower"),
    ("crypto.verify_s", "s", "lower"),
    ("crypto.verify_cache_hit_ratio", "ratio", "higher"),
    ("crypto.batch_verify_calls", "count", "lower"),
    ("crypto.batch_verify_s", "s", "lower"),
    ("crypto.sigs_per_batch", "count", "higher"),
    ("crypto.aggregate_s", "s", "lower"),
    ("crypto.verify_aggregate_calls", "count", "lower"),
    ("crypto.verify_aggregate_s", "s", "lower"),
    ("crypto.erasure_s", "s", "lower"),
    ("crypto.merkle_s", "s", "lower"),
    ("crypto.sig_ops_per_block", "count", "lower"),
    ("core.handle_calls", "count", "lower"),
    ("core.handle_self_s", "s", "lower"),
    ("core.timer_calls", "count", "lower"),
    ("core.timer_self_s", "s", "lower"),
    ("core.blocks_committed", "count", "higher"),
    ("core.blocks_per_s", "1/s", "higher"),
    ("core.txs_per_block", "count", "higher"),
    ("core.epoch_changes", "count", "lower"),
    ("core.service_gap_ms", "ms", "lower"),
    ("consensus.ledger_commit_s", "s", "lower"),
    ("mempool.add_calls", "count", "lower"),
    ("mempool.add_s", "s", "lower"),
    ("mempool.take_batch_calls", "count", "lower"),
    ("mempool.take_batch_s", "s", "lower"),
    ("mempool.dup_ratio", "ratio", "lower"),
    ("transport.send_calls", "count", "lower"),
    ("transport.send_s", "s", "lower"),
    ("transport.frames_in", "count", "lower"),
    ("transport.read_s", "s", "lower"),
    ("transport.queue_drops", "count", "lower"),
    ("transport.reconnects", "count", "lower"),
    ("simnet.send_calls", "count", "lower"),
    ("simnet.send_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_wall_s", "1/s", "higher"),
    ("sim.loop_self_s", "s", "lower"),
    ("wire.bytes_total", "bytes", "lower"),
    ("wire.msgs_total", "count", "lower"),
    ("wire.msgs_per_block", "count", "lower"),
    ("wire.bytes_per_block", "bytes", "lower"),
    ("wire.leader_egress_share", "ratio", "lower"),
    ("wire.small_msg_share", "ratio", "higher"),
    ("wire.account_s", "s", "lower"),
    ("dissem.calls", "count", "lower"),
    ("dissem.self_s", "s", "lower"),
    ("dissem.pull_requests", "count", "lower"),
    ("guard.calls", "count", "lower"),
    ("guard.self_s", "s", "lower"),
    ("recovery.calls", "count", "lower"),
    ("recovery.self_s", "s", "lower"),
    ("recovery.wal_appends", "count", "lower"),
    *((f"{layer}.share", "ratio", "lower") for layer in LAYERS),
    ("phase.queue_wait_p50_ms", "ms", "lower"),
    ("phase.propose_to_commit_p50_ms", "ms", "lower"),
    ("phase.commit_spread_p50_ms", "ms", "lower"),
    ("bench.generator_lag_p99_ms", "ms", "lower"),
    ("bench.speed_probe_ms", "ms", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.harness_share", "ratio", "lower"),
    ("bench.unattributed_share", "ratio", "lower"),
)


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile with linear interpolation; NaN of nothing.

    The benchmark's own, not ``repro.measure.stats``: what measures the
    program must not change when the program does.
    """
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document these tables describe."""
    return {
        "command": ["python3", "benchmarks/system/run.py"],
        "paths": ["benchmarks/system"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def names(specs: Sequence[tuple]) -> List[str]:
    return [spec[0] for spec in specs]
