"""Running experiments and collecting results.

:func:`run_experiment` is the single entry point every benchmark and test
uses: build a cluster from the config, run it, validate safety, and
distill an :class:`~repro.runner.metrics.ExperimentResult`.
"""

from __future__ import annotations

from typing import Iterable, List

from ..config import ExperimentConfig, ProtocolConfig
from ..measure.stats import LatencySummary
from .cluster import Cluster, build_cluster, check_safety
from .metrics import ExperimentResult
from .registry import cluster_size_for


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one simulated experiment end to end."""
    cluster = build_cluster(config)
    cluster.start()
    cluster.run()
    return summarize(cluster)


def summarize(cluster: Cluster) -> ExperimentResult:
    """Distill a finished cluster run into a result row."""
    config = cluster.config
    end = config.max_sim_time
    window = max(end - config.warmup, 1e-9)
    collector = cluster.collector
    latencies = collector.tx_latencies(end)
    committed = collector.committed_tx_count(end)

    obs_summary = None
    if cluster.obs is not None:
        from ..obs.analyze import summarize_recording

        obs_summary = summarize_recording(
            cluster.obs,
            delta=config.protocol_config.delta,
            small_threshold=config.network_config.small_threshold,
        )

    wire = cluster.wire
    honest_replicas = [r for r in cluster.replicas if r.replica_id in cluster.honest_ids]

    # Synchrony-guard surfacing: when monitors are attached, the result
    # row reports how honest the run's commits were about Δ drift.  Max
    # over honest replicas — an at-risk flag anywhere is an at-risk flag.
    extra: List = []
    guards = [r.subsystems.get("guard") for r in honest_replicas]
    guards = [guard for guard in guards if guard is not None]
    if guards:
        extra = [
            ("guard_violations", max(g.violation_count for g in guards)),
            ("at_risk_commits", max(r.ledger.at_risk_count for r in honest_replicas)),
            ("delta_installs", max(g.installs for g in guards)),
            (
                "delta_final_ms",
                round(max(g.effective_delta for g in guards) * 1e3, 3),
            ),
        ]
    extra.append(("leader_egress_share", round(wire.leader_egress_share(), 4)))

    return ExperimentResult(
        protocol=config.protocol,
        n=config.protocol_config.n,
        f=config.protocol_config.f,
        seed=config.seed,
        duration=window,
        committed_txs=committed,
        committed_blocks=collector.committed_blocks(),
        throughput_tps=committed / window,
        latency=LatencySummary.from_samples(latencies),
        block_latency=LatencySummary.from_samples(collector.block_latencies()),
        epoch_changes=max(r.epoch_changes for r in honest_replicas),
        wire=wire.snapshot(
            meta={
                "protocol": config.protocol,
                "seed": config.seed,
                "committed_blocks": collector.committed_blocks(),
            }
        ),
        safety_ok=check_safety(cluster.replicas, cluster.honest_ids),
        offered_rate=config.workload.rate,
        extra=tuple(extra),
        obs=obs_summary,
    )


def standard_protocol_config(
    protocol: str,
    f: int,
    delta_small: float,
    delta_big: float,
    **overrides,
) -> ProtocolConfig:
    """The paper's apples-to-apples configuration at equal fault budget f.

    Synchronous-model protocols run on 2f+1 replicas; partially
    synchronous ones on 3f+1.  AlterBFT gets the *small-message* bound as
    its Δ; Sync HotStuff must take the conservative *any-message* bound.
    Partially synchronous protocols have no Δ on the critical path (the
    value only scales their timeout defaults).
    """
    n = cluster_size_for(protocol, f)
    delta = delta_small if protocol == "alterbft" else delta_big
    if protocol in ("hotstuff", "pbft"):
        delta = delta_small  # timers only; never a commit wait
    epoch_timeout = max(1.0, 10 * delta)
    base = ProtocolConfig(n=n, f=f, delta=delta, epoch_timeout=epoch_timeout)
    return base.with_(**overrides) if overrides else base


def run_sweep(configs: Iterable[ExperimentConfig]) -> List[ExperimentResult]:
    """Run a list of experiment configs, in order."""
    return [run_experiment(c) for c in configs]
