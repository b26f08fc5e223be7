"""Shared plumbing for the experiment suite (E1–E10).

Each experiment module exposes ``run(fast=True) -> ExperimentOutput``.
``fast`` trims sweeps so the whole suite finishes in a few minutes; the
full mode extends durations and sweep points for the numbers recorded in
EXPERIMENTS.md.  All experiments derive their synchrony bounds from the
*same* calibrated delay model, the way a real deployment would derive
them from measurement (see :mod:`repro.measure`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import ExperimentConfig, NetworkConfig, ProtocolConfig, WorkloadConfig
from ..net.delay import HybridCloudDelayModel
from ..runner.experiment import run_experiment, standard_protocol_config
from ..runner.metrics import ExperimentResult
from ..runner.registry import cluster_size_for

#: The calibrated single-AZ cloud model every experiment shares.
DEFAULT_NETWORK = NetworkConfig()

#: Per-transaction wire overhead on top of the payload bytes (header
#: fields, codec tags); used to size blocks for bound derivation.
TX_OVERHEAD = 40

#: All four protocols in canonical comparison order.
ALL_PROTOCOLS = ("alterbft", "sync-hotstuff", "hotstuff", "pbft")


@dataclass
class ExperimentOutput:
    """What one experiment module produces."""

    experiment_id: str
    title: str
    rows: List[Dict[str, object]]
    headline: Dict[str, object] = field(default_factory=dict)
    notes: str = ""


def delay_model(network: NetworkConfig = DEFAULT_NETWORK) -> HybridCloudDelayModel:
    return HybridCloudDelayModel(network)


def delta_small(network: NetworkConfig = DEFAULT_NETWORK) -> float:
    """The small-message bound AlterBFT runs with."""
    return delay_model(network).small_message_bound()


def delta_big(
    max_block_bytes: int, network: NetworkConfig = DEFAULT_NETWORK
) -> float:
    """The any-message bound Sync HotStuff must run with."""
    return delay_model(network).worst_case_bound(max_block_bytes)


def block_bytes(max_batch: int, tx_size: int) -> int:
    """Approximate wire size of a full block."""
    return max_batch * (tx_size + TX_OVERHEAD) + 256


def make_config(
    protocol: str,
    f: int = 1,
    rate: Optional[float] = 1000.0,
    tx_size: int = 512,
    max_batch: int = 400,
    duration: float = 6.0,
    warmup: float = 1.0,
    seed: int = 1,
    network: NetworkConfig = DEFAULT_NETWORK,
    faults: Tuple[Tuple[int, str], ...] = (),
    wire_accounting: bool = False,
    **protocol_overrides,
) -> ExperimentConfig:
    """One standard experiment configuration.

    Synchrony bounds are derived from the network model and the maximum
    block this workload can produce — the honest procedure an operator
    follows.  ``wire_accounting`` is accepted and ignored: every run has
    an accountant, and ``benchmarks/system`` still passes the keyword.
    """
    d_small = delta_small(network)
    d_big = delta_big(block_bytes(max_batch, tx_size), network)
    pconf = standard_protocol_config(
        protocol,
        f=f,
        delta_small=d_small,
        delta_big=d_big,
        max_batch=max_batch,
        **protocol_overrides,
    )
    return ExperimentConfig(
        protocol=protocol,
        protocol_config=pconf,
        network_config=network,
        workload=WorkloadConfig(rate=rate, duration=max(duration - warmup, 1.0), tx_size=tx_size),
        seed=seed,
        max_sim_time=duration,
        warmup=warmup,
        faults=faults,
    )


def run_and_row(config: ExperimentConfig, **extra: object) -> Dict[str, object]:
    """Run a config and return its report row plus extra columns."""
    result = run_experiment(config)
    row = result.row()
    row.update(extra)
    return row


def ratio(base: float, other: float) -> float:
    """base / other, guarding zero."""
    return base / other if other > 0 else float("inf")
