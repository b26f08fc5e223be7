"""Configuration objects shared across the library.

All time quantities are in **seconds** (floats), all sizes in **bytes**.
Configuration objects are plain frozen dataclasses: construct them once,
pass them around, never mutate.  :func:`ProtocolConfig.validate` and friends
raise :class:`repro.errors.ConfigError` on inconsistent settings so that a
bad experiment fails at assembly time rather than mid-run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .errors import ConfigError

#: Wire-size threshold below which a message counts as "small" for the
#: hybrid synchronous model.  Votes, headers, and blames are a few hundred
#: bytes; block payloads are tens of kilobytes to megabytes.  The paper's
#: model only needs the two classes to be separable; 4 KiB separates them
#: by two orders of magnitude in practice.
SMALL_MESSAGE_THRESHOLD = 4096

#: Floor, in seconds, of the per-provider timeout before a catching-up
#: or chunk-pulling replica re-asks an alternate provider (Byzantine
#: providers must not stall it); both managers run ``max(this, 3Δ)``.
#: A constant, not a field: nothing has ever run it at another value.
CATCHUP_RETRY = 0.25


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters common to every consensus protocol in the library.

    Attributes:
        n: number of replicas.
        f: number of tolerated Byzantine replicas.
        delta: the synchrony bound Δ applied by synchronous protocols.
            For AlterBFT this bounds *small* messages only; for Sync
            HotStuff it must conservatively bound *every* message.
        epoch_timeout: initial progress timeout before a replica blames
            the leader (adaptive protocols grow it on repeated failures).
        epoch_timeout_growth: multiplicative back-off factor applied to the
            epoch timeout after each failed epoch (>= 1.0).
        max_batch: maximum number of transactions batched into one block.
        max_payload_bytes: cap on serialized payload size per block.
        pipeline_depth: number of certified-but-uncommitted proposals a
            leader may have in flight (1 = strictly sequential).  A depth
            > 1 asks for the ``pipeline`` feature (:meth:`features`),
            which only AlterBFT carries.
        idle_propose_delay: when the mempool is empty, a leader waits this
            long before proposing an (empty) block instead of spinning at
            network speed.  0 disables pacing.
        relay_headers: AlterBFT ablation switch — re-broadcast the first
            header seen for each height (required for safety; E10).
        vote_requires_payload: AlterBFT ablation switch — vote only after
            the payload matching the header digest arrived (E10).
        signature_scheme: "hashsig" (fast, simulation-grade) or "schnorr"
            (real transferable signatures; slower).
        crypto_batch: verify vote floods lazily in one scheme-level batch
            check at quorum time instead of eagerly per vote, with
            bisection attribution (and exclusion) of bad signatures when
            the batch fails.  Off by default: the eager per-vote path is
            kept byte-identical for the golden trace fingerprint.
        crypto_aggregate: True, and only True.  Every certificate is an
            aggregate (one aggregate signature + signer bitmap), the
            smallest proof of a quorum; the raw signature-list form is
            retired.  The keyword stays only because the frozen system
            benchmark catalogue passes it; :meth:`validate` refuses
            False, and the field goes once the catalogue drops it.
        dissemination: the ``dissem`` feature — disseminate payloads as
            erasure-coded, Merkle-rooted chunk shares instead of one
            blob broadcast: the leader sends each replica one share of
            size payload/(f+1) and replicas pull the remaining shares
            from peers (provider rotation tolerates Byzantine
            withholding), reconstructing — and only then voting — once
            any f+1 verified shares arrive.  Off by default: the blob
            path is kept byte-identical for the golden trace
            fingerprint.
        checkpoint_interval: every K committed blocks, sign a checkpoint
            over (height, cumulative ledger digest); f+1 matching
            signatures form a checkpoint certificate that lets the block
            store prune the committed prefix and lets rejoining replicas
            adopt the prefix without re-running consensus.  0 (the
            default) disables checkpointing entirely — no extra
            messages, timers, or trace events are produced.
        guard_enabled: attach a :class:`repro.guard.SynchronyMonitor` to
            every replica — runtime Δ-violation detection from observed
            small-message delays plus signed probe traffic, adaptive Δ
            re-calibration via f+1 ``DeltaAdjust`` certificates installed
            at epoch boundaries, and at-risk flagging of commits made
            while a violation is suspected.  False (the default) is
            observationally inert: no probes, no timers, no extra
            messages, byte-identical seeded traces.
        guard_probe_interval: period of the signed probe broadcast that
            keeps the delay estimate fresh when consensus traffic is
            sparse, seconds.
    """

    n: int
    f: int
    delta: float = 0.010
    epoch_timeout: float = 1.0
    epoch_timeout_growth: float = 2.0
    max_batch: int = 400
    max_payload_bytes: int = 2 * 1024 * 1024
    pipeline_depth: int = 1
    idle_propose_delay: float = 0.02
    relay_headers: bool = True
    vote_requires_payload: bool = True
    signature_scheme: str = "hashsig"
    crypto_batch: bool = False
    crypto_aggregate: bool = True
    dissemination: bool = False
    checkpoint_interval: int = 0
    guard_enabled: bool = False
    guard_probe_interval: float = 0.05

    def validate(self, quorum_style: str = "2f+1") -> None:
        """Check internal consistency for a given resilience style.

        Args:
            quorum_style: "2f+1" for synchronous/hybrid protocols
                (AlterBFT, Sync HotStuff) or "3f+1" for partially
                synchronous ones (HotStuff, PBFT).
        """
        _require(self.f >= 0, "f must be non-negative")
        if quorum_style == "2f+1":
            _require(self.n >= 2 * self.f + 1, f"need n >= 2f+1, got n={self.n}, f={self.f}")
        elif quorum_style == "3f+1":
            _require(self.n >= 3 * self.f + 1, f"need n >= 3f+1, got n={self.n}, f={self.f}")
        else:
            raise ConfigError(f"unknown quorum style {quorum_style!r}")
        _require(self.delta > 0, "delta must be positive")
        _require(self.epoch_timeout > 0, "epoch_timeout must be positive")
        _require(self.epoch_timeout_growth >= 1.0, "epoch_timeout_growth must be >= 1")
        _require(self.max_batch >= 1, "max_batch must be >= 1")
        _require(self.max_payload_bytes >= 1, "max_payload_bytes must be >= 1")
        _require(self.pipeline_depth >= 1, "pipeline_depth must be >= 1")
        _require(self.idle_propose_delay >= 0, "idle_propose_delay must be >= 0")
        _require(
            self.signature_scheme in ("hashsig", "schnorr"),
            f"unknown signature scheme {self.signature_scheme!r}",
        )
        _require(
            self.crypto_aggregate, "crypto_aggregate=False is retired: certificates are aggregates"
        )
        _require(self.checkpoint_interval >= 0, "checkpoint_interval must be >= 0")
        _require(self.guard_probe_interval > 0, "guard_probe_interval must be positive")

    def features(self, restarts: bool = False) -> Dict[str, str]:
        """The one reading of the flags: each optional feature they (or a
        fault that ``restarts`` a replica) ask for → the setting that asks.
        A replica class refuses any it does not carry (``FEATURES``); the
        registry attaches each one's subsystem (``pipeline`` has none)."""
        flags = (
            ("pipeline", "pipeline_depth", self.pipeline_depth > 1),
            ("recovery", "checkpoint_interval", self.checkpoint_interval > 0),
            ("guard", "guard_enabled", self.guard_enabled),
            ("dissem", "dissemination", self.dissemination),
        )
        asked = {name: f"{field}={getattr(self, field)!r}" for name, field, on in flags if on}
        if restarts:
            asked.setdefault("recovery", "a fault that restarts a replica")
        return asked

    def with_(self, **overrides) -> "ProtocolConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **overrides)


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters of the simulated network substrate.

    The defaults model a single public-cloud availability zone as
    characterized by the paper: sub-millisecond propagation, a small-message
    bound of a few milliseconds that holds at the far tail, and
    heavy-tailed large-message delays caused by loss recovery and
    bandwidth contention.

    Attributes:
        base_delay: one-way propagation delay floor between two replicas.
        jitter_scale: scale of the exponential jitter added to every
            message (models kernel/NIC scheduling noise).
        small_threshold: wire size at or below which a message is "small".
        small_bound: hard bound applied to small-message delay in the
            simulated cloud (the empirical Δ the paper measures).
        bandwidth: per-flow bandwidth for the size-proportional term of
            large messages, bytes/second.
        egress_bandwidth: total NIC egress rate per node, bytes/second.
            A broadcast serializes its copies through this — what makes a
            leader's fan-out of large payloads the throughput bottleneck
            and differentiates 2f+1 clusters from 3f+1 ones.
        slowdown_probability: probability that a large message hits a
            slowdown episode (loss recovery / incast) and takes a
            Pareto-tailed extra delay.
        slowdown_scale: scale of the Pareto extra delay, seconds.
        slowdown_alpha: Pareto tail index (smaller = heavier tail).

    Links are reliable, as the paper's model assumes: the delay models
    delay every message and drop none.  Drops are fault injection,
    through :meth:`repro.net.simnet.SimNetwork.add_filter` and delay
    policies.
    """

    base_delay: float = 0.0005
    jitter_scale: float = 0.0004
    small_threshold: int = SMALL_MESSAGE_THRESHOLD
    small_bound: float = 0.005
    bandwidth: float = 50e6
    egress_bandwidth: float = 250e6
    slowdown_probability: float = 0.05
    slowdown_scale: float = 0.015
    slowdown_alpha: float = 2.5

    def validate(self) -> None:
        _require(self.base_delay >= 0, "base_delay must be >= 0")
        _require(self.jitter_scale >= 0, "jitter_scale must be >= 0")
        _require(self.small_threshold > 0, "small_threshold must be positive")
        _require(self.small_bound > self.base_delay, "small_bound must exceed base_delay")
        _require(self.bandwidth > 0, "bandwidth must be positive")
        _require(self.egress_bandwidth > 0, "egress_bandwidth must be positive")
        _require(0 <= self.slowdown_probability <= 1, "slowdown_probability in [0,1]")
        _require(self.slowdown_scale >= 0, "slowdown_scale must be >= 0")
        _require(self.slowdown_alpha > 0, "slowdown_alpha must be positive")

    def with_(self, **overrides) -> "NetworkConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **overrides)


@dataclass(frozen=True)
class WorkloadConfig:
    """Client workload shape for experiments.

    Attributes:
        tx_size: serialized size of each transaction's opaque payload.
        rate: offered load in transactions/second (aggregate, open loop).
            ``None`` means closed-loop saturation: the mempool is refilled
            so every block is full.
        duration: simulated seconds of workload to generate.
    """

    tx_size: int = 256
    rate: Optional[float] = None
    duration: float = 20.0

    def validate(self) -> None:
        _require(self.tx_size >= 8, "tx_size must be >= 8 bytes")
        _require(self.rate is None or self.rate > 0, "rate must be positive or None")
        _require(self.duration > 0, "duration must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully specified simulated experiment run.

    Attributes:
        protocol: registry name: "alterbft", "sync-hotstuff", "hotstuff"
            or "pbft".
        protocol_config: consensus parameters.
        network_config: network substrate parameters.
        workload: client workload.
        seed: master RNG seed (runs are deterministic given the seed).
        max_sim_time: hard stop for the simulation clock.
        warmup: committed transactions before this simulated time are
            excluded from latency/throughput statistics.
        faults: tuple of (replica_id, behavior spec) pairs applied at
            cluster assembly; each spec must resolve through
            :data:`repro.faults.behaviors.BEHAVIORS` for this protocol
            and these flags.
        topology: "single-az" (the paper's main setting) or
            "three-regions" (the WAN experiment, E9).
        observability: attach a :class:`repro.obs.SpanRecorder` to the
            cluster — block-lifecycle spans, epoch events, and
            per-message delay samples for the ``repro.obs`` analyses and
            exporters.  Recording is observationally inert (seeded
            fingerprints are byte-identical either way) but costs memory
            proportional to the message count; off by default.

    Every run counts its wire bytes in one
    :class:`repro.obs.wire.WireAccountant` (``Cluster.wire``), so there is
    no option for it.
    """

    protocol: str
    protocol_config: ProtocolConfig
    network_config: NetworkConfig = field(default_factory=NetworkConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    seed: int = 1
    max_sim_time: float = 30.0
    warmup: float = 2.0
    faults: Tuple[Tuple[int, str], ...] = ()
    topology: str = "single-az"
    observability: bool = False

    def validate(self) -> None:
        from .runner.registry import quorum_style_for  # local import: avoids a cycle

        self.protocol_config.validate(quorum_style_for(self.protocol))
        self.network_config.validate()
        self.workload.validate()
        _require(self.max_sim_time > 0, "max_sim_time must be positive")
        _require(0 <= self.warmup < self.max_sim_time, "warmup must fall inside the run")
        for replica_id, _ in self.faults:
            _require(
                0 <= replica_id < self.protocol_config.n,
                f"fault target {replica_id} out of range",
            )
        self.refuse_uncarried()
        _require(
            self.topology in ("single-az", "three-regions"),
            f"unknown topology {self.topology!r}",
        )

    def refuse_uncarried(self) -> None:
        """The protocol's one feature check (``BaseReplica.refuse_uncarried``)
        on this run: its flags, and recovery if a fault restarts a replica."""
        from .faults.behaviors import resolve_behavior  # local imports: avoid cycles
        from .runner.registry import replica_class_for

        rows = [resolve_behavior(spec, self.protocol, self.protocol_config)[0]
                for _, spec in self.faults]
        replica_class_for(self.protocol).refuse_uncarried(
            self.protocol_config, any(row.restarts for row in rows))
