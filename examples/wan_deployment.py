#!/usr/bin/env python3
"""Multi-region deployment: hybrid synchrony across a WAN.

Usage::

    python examples/wan_deployment.py

Places an f = 1 cluster across three regions (us-east / us-west /
eu-west), derives region-aware bounds, and compares AlterBFT with Sync
HotStuff.  Cross-region propagation raises the small-message bound to
tens of milliseconds — but the classical protocol's bound must *also*
absorb worst-case block transfer over the thinner inter-region pipes,
so the structural gap survives the WAN.
"""

from repro import ExperimentConfig, NetworkConfig, WorkloadConfig, run_experiment
from repro.net.delay import WanDelayModel
from repro.net.topology import three_regions
from repro.runner.experiment import standard_protocol_config


def main() -> None:
    network = NetworkConfig()
    topology = three_regions(3)
    wan = WanDelayModel(network, topology)

    delta_small = wan.small_message_bound()
    delta_big = wan.worst_case_bound(128 * 1024)
    print("region placement:", dict(enumerate(topology.placements)))
    print(f"Δ_small (worst pair) = {delta_small * 1e3:.1f} ms, "
          f"Δ_big = {delta_big * 1e3:.1f} ms\n")

    for protocol in ("alterbft", "sync-hotstuff"):
        config = ExperimentConfig(
            protocol=protocol,
            protocol_config=standard_protocol_config(
                protocol, f=1, delta_small=delta_small, delta_big=delta_big, max_batch=200
            ),
            network_config=network,
            workload=WorkloadConfig(rate=200.0, duration=10.0, tx_size=512),
            max_sim_time=12.0,
            warmup=2.0,
            topology="three-regions",
        )
        result = run_experiment(config)
        print(
            f"{protocol:14s} p50={result.latency.p50 * 1e3:7.1f} ms  "
            f"p99={result.latency.p99 * 1e3:7.1f} ms  "
            f"tput={result.throughput_tps:7.1f} tps  safety={result.safety_ok}"
        )


if __name__ == "__main__":
    main()
