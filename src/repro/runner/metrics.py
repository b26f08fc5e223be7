"""Experiment metrics collection.

One :class:`MetricsCollector` observes commits on every replica.  A
transaction counts as *committed* at the first time any honest replica
commits it (the client-visible moment in the standard BFT benchmark
methodology); block-level consensus latency is measured at the proposer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..measure.stats import LatencySummary
from ..mempool.mempool import TxKey
from ..types.block import Block

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.analyze import ObsSummary


@dataclass
class CommitRecord:
    """First-commit bookkeeping for one transaction."""

    submitted_at: float
    first_committed_at: float


class MetricsCollector:
    """Aggregates commit observations across a cluster."""

    def __init__(self, warmup: float, honest_ids: Set[int]) -> None:
        self.warmup = warmup
        self.honest_ids = honest_ids
        self._tx_commits: Dict[TxKey, CommitRecord] = {}
        self._block_first_commit: Dict[bytes, float] = {}
        self._block_proposed_at: Dict[bytes, float] = {}
        #: Per-replica (time, height, block_hash, parent) commit records,
        #: in observation order.  Unlike the final ledgers, this keeps
        #: every commit *event* — pre-crash commits and rejoin re-commits
        #: included — which is what the pipelined height-agreement and
        #: certified-prefix invariants examine, and the per-replica commit
        #: times the liveness invariant measures gaps in.
        self.commit_records_by_replica: Dict[int, List[Tuple[float, int, bytes, bytes]]] = {}

    def make_listener(self, replica_id: int):
        """A ledger commit listener bound to one replica."""

        def on_commit(block: Block, now: float) -> None:
            self.observe_commit(replica_id, block, now)

        return on_commit

    def note_proposal(self, block_hash: bytes, now: float) -> None:
        self._block_proposed_at.setdefault(block_hash, now)

    def observe_commit(self, replica_id: int, block: Block, now: float) -> None:
        if replica_id not in self.honest_ids:
            return
        self.commit_records_by_replica.setdefault(replica_id, []).append(
            (now, block.height, block.block_hash, block.parent)
        )
        if block.block_hash in self._block_first_commit:
            # A later replica's commit of a block already seen: every
            # transaction in it has its record from the first one.
            return
        self._block_first_commit[block.block_hash] = now
        tx_commits = self._tx_commits
        for tx in block.payload.transactions:
            key = (tx.client_id, tx.seq)
            if key not in tx_commits:
                tx_commits[key] = CommitRecord(
                    submitted_at=tx.submitted_at, first_committed_at=now
                )

    # -- extraction ---------------------------------------------------------

    def tx_latencies(self, end_time: float) -> List[float]:
        """Per-transaction commit latencies inside the measurement window."""
        return [
            r.first_committed_at - r.submitted_at
            for r in self._tx_commits.values()
            if r.submitted_at >= self.warmup and r.first_committed_at <= end_time
        ]

    def committed_tx_count(self, end_time: float) -> int:
        return sum(
            1
            for r in self._tx_commits.values()
            if self.warmup <= r.first_committed_at <= end_time
        )

    def block_latencies(self) -> List[float]:
        """Propose→first-commit latency per block (proposer clock)."""
        out = []
        for block_hash, committed in self._block_first_commit.items():
            proposed = self._block_proposed_at.get(block_hash)
            if proposed is not None and proposed >= self.warmup:
                out.append(committed - proposed)
        return out

    def committed_blocks(self) -> int:
        return len(self._block_first_commit)

    def max_commit_gap(self, start: float, end: float) -> float:
        """Longest interval without any block commit inside [start, end].

        The fault experiments report this as "service interruption": how
        long clients waited while the cluster changed leaders.
        """
        times = sorted(t for t in self._block_first_commit.values() if start <= t <= end)
        if not times:
            return end - start
        gaps = [times[0] - start]
        gaps.extend(b - a for a, b in zip(times, times[1:]))
        gaps.append(end - times[-1])
        return max(gaps)


def ms_cell(summary: LatencySummary, stat: str) -> Optional[float]:
    """One statistic of ``summary`` in ms, rounded for a report cell; None
    (a report table prints —) when the sample is empty, so that no sample
    does not read as 0 ms."""
    return round(getattr(summary, stat) * 1e3, 2) if summary.count else None


@dataclass(frozen=True)
class ExperimentResult:
    """Everything one simulated run reports."""

    protocol: str
    n: int
    f: int
    seed: int
    duration: float
    committed_txs: int
    committed_blocks: int
    throughput_tps: float
    latency: LatencySummary
    block_latency: LatencySummary
    epoch_changes: int
    #: Wire-accounting snapshot (:meth:`repro.obs.wire.WireAccountant.snapshot`).
    wire: Dict[str, object]
    safety_ok: bool
    offered_rate: Optional[float] = None
    extra: Tuple[Tuple[str, float], ...] = field(default_factory=tuple)
    #: Observability distillation (phase histograms, epoch timeline,
    #: stragglers, Δ-headroom); present iff the run enabled
    #: ``ExperimentConfig.observability``.
    obs: Optional["ObsSummary"] = None

    def row(self) -> Dict[str, object]:
        """Flat dict for report tables."""
        out: Dict[str, object] = {
            "protocol": self.protocol,
            "n": self.n,
            "f": self.f,
            "tput_tps": round(self.throughput_tps, 1),
            "lat_p50_ms": ms_cell(self.latency, "p50"),
            "lat_mean_ms": ms_cell(self.latency, "mean"),
            "lat_p99_ms": ms_cell(self.latency, "p99"),
            "blk_lat_p50_ms": ms_cell(self.block_latency, "p50"),
            "commits": self.committed_txs,
            "epoch_changes": self.epoch_changes,
            "safety_ok": self.safety_ok,
        }
        out.update(dict(self.extra))
        return out
