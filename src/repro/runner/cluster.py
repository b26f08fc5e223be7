"""Cluster assembly: wire replicas, network, workload, and metrics.

:func:`build_cluster` turns an :class:`~repro.config.ExperimentConfig`
into a ready-to-run simulated deployment; :func:`check_safety` validates
post-run that every pair of honest ledgers agrees — the invariant the
whole exercise is about.  :meth:`Cluster.run` keeps the cyclic collector
off the committed history while it runs: the heap is frozen at each
commit and thawed when the run returns, so a finished run leaves
nothing frozen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..config import ExperimentConfig
from ..consensus.context import SimContext
from ..consensus.ledger import freeze_history
from ..consensus.replica import BaseReplica
from ..crypto.hashing import Digest
from ..crypto.keystore import build_cluster_keys
from ..faults.behaviors import apply_behavior, resolve_behavior
from ..mempool.mempool import Mempool
from ..mempool.workload import WorkloadGenerator
from ..net.delay import DelayModel, HybridCloudDelayModel, WanDelayModel
from ..net.simnet import SimNetwork
from ..net.topology import single_az, three_regions
from ..obs.recorder import SpanRecorder
from ..obs.wire import WireAccountant
from ..sim.rng import RngFactory
from ..sim.scheduler import Scheduler
from ..sim.tracing import Trace
from .metrics import MetricsCollector
from .registry import attach_subsystems, replica_class_for, validator_set_for

#: How often saturation mode tops mempools up, seconds.  Together with
#: the target below this must outpace the fastest pipeline (a block per
#: ~4 ms at small payloads), or "saturation" throughput measures the
#: generator instead of the protocol.
SATURATION_TOPUP_PERIOD = 0.05


@dataclass
class Cluster:
    """A fully wired simulated deployment."""

    config: ExperimentConfig
    scheduler: Scheduler
    network: SimNetwork
    replicas: List[BaseReplica]
    workload: WorkloadGenerator
    collector: MetricsCollector
    trace: Trace
    honest_ids: Set[int] = field(default_factory=set)
    delay_model: DelayModel = None  # type: ignore[assignment]
    #: Span recorder, present iff the config enabled observability.
    obs: Optional[SpanRecorder] = None

    @property
    def wire(self) -> WireAccountant:
        """The run's wire-byte accountant: the one its trace carries."""
        return self.trace.wire

    def fingerprint(self) -> str:
        """The run's fingerprint: the trace's counts and wire tally with
        the honest replicas' ledger hashes folded in (what replay compares)."""
        ledger = b"".join(
            block_hash
            for replica in self.replicas
            if replica.replica_id in self.honest_ids
            for block_hash in replica.ledger.all_hashes()
        )
        return self.trace.fingerprint(extra=ledger)

    def start(self) -> None:
        """Schedule protocol start and workload generation at t=0."""
        for replica in self.replicas:
            self.scheduler.at(0.0, replica.on_start)
        self.scheduler.at(0.0, self.workload.start)
        if self.config.workload.rate is None:
            self._schedule_topup()

    def _schedule_topup(self) -> None:
        target = self.config.protocol_config.max_batch * 10

        def topup() -> None:
            for replica in self.replicas:
                if replica.replica_id in self.honest_ids:
                    self.workload.top_up(replica.mempool, target)
            if self.scheduler.now < self.config.max_sim_time:
                self.scheduler.after(SATURATION_TOPUP_PERIOD, topup)

        self.scheduler.at(0.0, topup)

    def run(self) -> None:
        """Run the simulation to the configured horizon.

        The collector's heap is frozen at every commit while it runs and
        thawed when it returns, on an exception too
        (:func:`~repro.consensus.ledger.freeze_history`).
        """
        thaw = freeze_history(replica.ledger for replica in self.replicas)
        try:
            self.scheduler.run(until=self.config.max_sim_time)
        finally:
            thaw()


def make_delay_model(config: ExperimentConfig) -> DelayModel:
    """Instantiate the delay model for the experiment's topology."""
    if config.topology == "three-regions":
        return WanDelayModel(config.network_config, three_regions(config.protocol_config.n))
    return HybridCloudDelayModel(config.network_config)


def build_cluster(config: ExperimentConfig) -> Cluster:
    """Assemble a simulated cluster from an experiment configuration."""
    config.validate()
    pconf = config.protocol_config
    scheduler = Scheduler()
    rng_factory = RngFactory(config.seed)
    trace = Trace(WireAccountant(small_threshold=config.network_config.small_threshold))
    obs = SpanRecorder() if config.observability else None
    delay_model = make_delay_model(config)
    network = SimNetwork(
        scheduler,
        delay_model,
        rng_factory,
        trace,
        egress_bandwidth=config.network_config.egress_bandwidth,
        priority_threshold=config.network_config.small_threshold,
        obs=obs,
    )

    signers = build_cluster_keys(pconf.signature_scheme, pconf.n)
    validators = validator_set_for(config.protocol, pconf.n, pconf.f)
    replica_cls = replica_class_for(config.protocol)

    faulty: Dict[int, str] = dict(config.faults)
    rows = {i: resolve_behavior(spec, config.protocol, pconf)[0] for i, spec in faulty.items()}
    # A gray failure degrades a replica's uplink, not its behavior: the
    # replica is *honest*, keeps receiving workload, and its ledger
    # stays subject to the safety checks — the point of the failure mode
    # (an honest replica whose messages violate Δ).
    honest_ids = {i for i in range(pconf.n) if i not in rows or rows[i].honest}
    collector = MetricsCollector(warmup=config.warmup, honest_ids=honest_ids)

    # A fault that restarts a replica does so checkpointing or not.
    restartable = any(row.restarts for row in rows.values())

    replicas: List[BaseReplica] = []
    for replica_id in range(pconf.n):
        replica = replica_cls(
            replica_id=replica_id,
            validators=validators,
            config=pconf,
            signer=signers[replica_id],
            mempool=Mempool(),
        )
        replica.obs = obs
        attach_subsystems(
            replica,
            small_threshold=config.network_config.small_threshold,
            restartable=restartable,
        )
        guard = replica.subsystems.get("guard")
        if guard is not None:
            # The guard's measurement tap: every delivery to this replica
            # reports its one-way latency.
            network.set_delay_observer(replica_id, guard.on_network_delay)
        _instrument(replica, collector, scheduler)
        if replica_id in faulty:
            apply_behavior(faulty[replica_id], replica, network, scheduler)
        ctx = SimContext(
            node_id=replica_id,
            n=pconf.n,
            scheduler=scheduler,
            network=network,
            timer_callback=replica.on_timer,
        )
        replica.bind(ctx)
        network.attach(replica_id, replica.handle)
        replica.ledger.add_listener(collector.make_listener(replica_id))
        replicas.append(replica)

    workload = WorkloadGenerator(
        scheduler=scheduler,
        mempools=[r.mempool for r in replicas if r.replica_id in honest_ids],
        config=config.workload,
        rng_factory=rng_factory,
    )
    return Cluster(
        config=config,
        scheduler=scheduler,
        network=network,
        replicas=replicas,
        workload=workload,
        collector=collector,
        trace=trace,
        honest_ids=honest_ids,
        delay_model=delay_model,
        obs=obs,
    )


def _instrument(replica: BaseReplica, collector: MetricsCollector, scheduler: Scheduler) -> None:
    """Record proposal times through the sign_proposal choke point."""
    original = replica.sign_proposal

    def sign_and_note(block_hash: bytes) -> bytes:
        collector.note_proposal(block_hash, scheduler.now)
        return original(block_hash)

    replica.sign_proposal = sign_and_note  # type: ignore[method-assign]


def first_conflict(
    replicas: Sequence[BaseReplica], honest_ids: Set[int]
) -> Optional[Tuple[int, Dict[Digest, int]]]:
    """The lowest height at which two honest committed ledgers hold
    different blocks, with each block hash committed there → the first
    replica (in ``replicas`` order) that holds it; None when every honest
    ledger is a prefix of the longest."""
    ledgers = [(r.replica_id, r.ledger.all_hashes()) for r in replicas if r.replica_id in honest_ids]
    for height in range(max((len(chain) for _, chain in ledgers), default=0)):
        seen: Dict[Digest, int] = {}
        for replica_id, chain in ledgers:
            if height < len(chain):
                seen.setdefault(chain[height], replica_id)
        if len(seen) > 1:
            return height, seen
    return None


def check_safety(replicas: Sequence[BaseReplica], honest_ids: Set[int]) -> bool:
    """True iff all honest committed ledgers are prefix-consistent."""
    return first_conflict(replicas, honest_ids) is None
