"""First-class invariant checkers over finished simulation runs.

Each checker consumes a run cluster (replica state, metrics, trace) and
renders a verdict with enough detail to act on a violation.  The
invariants are the correctness claims the repository exists to test:

* **agreement** — no two honest replicas commit conflicting blocks at any
  height (pairwise prefix consistency of honest ledgers);
* **certified-chain** — every committed block is reachable from genesis
  through intact parent links, carries a payload matching its header
  commitment, and is certified by a cryptographically valid quorum
  certificate some replica formed or accepted during the run (read from
  the run's :class:`CertificateLog`, not from what replicas retain);
* **bounded-gap liveness** — once faults have played out (the scenario's
  *recovery time*), no honest replica goes longer than the model-derived
  bound without committing;
* **recovery** — every replica that crashed and restarted caught back up
  to a prefix of the honest ledger without ever contradicting a vote it
  journaled before the crash.
* **guard-flagging** — while an adversary violates the small-message
  bound, no honest replica commits *silently*: every in-window commit is
  either flagged at-risk or covered by a re-certified Δ large enough for
  the inflated delays (slow-link scenarios only).
* **height-agreement** — across overlapping pipelined commit windows,
  every commit *observation* (not just the final ledgers — pre-crash
  commits and rejoin re-commits included) agrees per height across
  honest replicas;
* **certified-prefix** — each honest replica's commit stream only ever
  extends its committed prefix: height h never commits before h−1,
  re-commits carry the same hash, and every new commit links onto the
  block committed below it.

Checkers never mutate the cluster; they can run repeatedly and in any
order.  A violation is reported as data, not an exception — the sweep
runner (:mod:`repro.check.runner`) aggregates them across scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..crypto.hashing import Digest, short_hex
from ..runner.cluster import Cluster, first_conflict
from ..types.certificates import Certificate, Vote

#: Canonical invariant names, in report order.
AGREEMENT = "agreement"
CERTIFIED_CHAIN = "certified-chain"
BOUNDED_GAP = "bounded-gap"
RECOVERY = "recovery"
GUARD_FLAGGING = "guard-flagging"
BAD_VOTE_ATTRIBUTION = "bad-vote-attribution"
HEIGHT_AGREEMENT = "height-agreement"
CERTIFIED_PREFIX = "certified-prefix"


@dataclass(frozen=True)
class InvariantResult:
    """Verdict of one invariant checker on one run."""

    name: str
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "ok" if self.ok else "VIOLATED"
        return f"{self.name}: {mark}" + (f" ({self.detail})" if self.detail else "")


def check_agreement(cluster: "Cluster") -> InvariantResult:
    """No two honest replicas commit conflicting blocks at any height
    (:func:`repro.runner.cluster.first_conflict`, the scan ``check_safety``
    runs too)."""
    conflict = first_conflict(cluster.replicas, cluster.honest_ids)
    if conflict is None:
        return InvariantResult(AGREEMENT, True)
    height, seen = conflict
    pairs = ", ".join(
        f"replica {rid}={short_hex(h)}" for h, rid in sorted(seen.items(), key=lambda i: i[1])
    )
    return InvariantResult(AGREEMENT, False, f"conflicting commits at height {height}: {pairs}")


class CertificateLog:
    """The first certificate per block hash any replica of a run formed
    (its vote collector's, ``BaseReplica.votes``) or accepted
    (``verify_qc``), heard through ``on_certificate``, as replicas release
    theirs at the retention horizon: one log per cluster, not a copy per
    replica."""

    name = "certificate-log"
    HANDLERS: Dict[type, str] = {}
    TIMERS: Dict[str, str] = {}

    def __init__(self) -> None:
        self.by_block: Dict[Digest, Certificate] = {}

    def on_certificate(self, qc: Certificate) -> None:
        self.by_block.setdefault(qc.block_hash, qc)


def install_certificate_log(cluster: "Cluster") -> CertificateLog:
    """Attach one :class:`CertificateLog` to every replica, before the run."""
    log = CertificateLog()
    for replica in cluster.replicas:
        replica.attach(log)
    return log


def check_certified_chain(cluster: "Cluster") -> InvariantResult:
    """Every committed block chains to genesis under a certificate that
    verifies for an honest replica — whoever formed or accepted it."""
    honest = [r for r in cluster.replicas if r.replica_id in cluster.honest_ids]
    if not honest:
        return InvariantResult(CERTIFIED_CHAIN, True, "no honest replicas")
    verifier = honest[0]
    log = verifier.subsystems.get(CertificateLog.name)
    if log is None:
        return InvariantResult(CERTIFIED_CHAIN, False, "no log: install_certificate_log")
    # verify_qc hands each certificate back to the log: a no-op, it is there.
    certified = {h for h, qc in log.by_block.items() if verifier.verify_qc(qc)}
    for replica in honest:
        ledger = replica.ledger
        for height in range(len(ledger)):
            block = ledger.block_at(height)
            if height > 0:
                parent = ledger.block_at(height - 1)
                if block.parent != parent.block_hash:
                    return InvariantResult(
                        CERTIFIED_CHAIN,
                        False,
                        f"replica {replica.replica_id}: broken parent link at height {height}",
                    )
                if block.block_hash not in certified:
                    return InvariantResult(
                        CERTIFIED_CHAIN,
                        False,
                        f"replica {replica.replica_id}: no valid QC for committed "
                        f"block {short_hex(block.block_hash)} at height {height}",
                    )
            if not block.validate_payload():
                return InvariantResult(
                    CERTIFIED_CHAIN,
                    False,
                    f"replica {replica.replica_id}: payload/header mismatch at height {height}",
                )
    return InvariantResult(CERTIFIED_CHAIN, True)


def check_bounded_gap(
    cluster: "Cluster", recovery_time: float, gap_bound: float
) -> InvariantResult:
    """After ``recovery_time``, honest commits never pause past the bound.

    The bound is scenario-derived (see
    :func:`repro.check.scenarios.liveness_gap_bound`): roughly one full
    adaptive epoch change plus the protocol's commit path, with slack.
    """
    end = cluster.config.max_sim_time
    if end - recovery_time < gap_bound:
        return InvariantResult(
            BOUNDED_GAP, True, "window shorter than bound; vacuously satisfied"
        )
    collector = cluster.collector
    for replica_id in sorted(cluster.honest_ids):
        times = [
            t
            for t, *_ in collector.commit_records_by_replica.get(replica_id, [])
            if t >= recovery_time
        ]
        edges = [recovery_time] + times + [end]
        worst = max(b - a for a, b in zip(edges, edges[1:]))
        if worst > gap_bound:
            return InvariantResult(
                BOUNDED_GAP,
                False,
                f"replica {replica_id}: {worst:.3f}s without a commit after "
                f"t={recovery_time:.1f} (bound {gap_bound:.3f}s)",
            )
    return InvariantResult(BOUNDED_GAP, True)


def check_recovery(cluster: "Cluster") -> InvariantResult:
    """Every restarted replica rejoined without stalling or regressing.

    Applies to replicas carrying a :class:`~repro.recovery.RecoveryManager`
    that actually restarted during the run (vacuously true otherwise).
    Three claims per rejoiner:

    * **convergence** — its committed ledger is a prefix of (or equal to)
      the longest honest ledger; a rejoiner that installed a forged
      snapshot or fetched a fork would diverge here;
    * **caught up** — catchup completed (``caught_up_at`` set).  This is
      the harness's stall detector: a Byzantine quorum withholding
      snapshots/ranges past every retry shows up as a violation;
    * **no double vote** — the write-ahead log never records two votes
      for the same (epoch, height) with different block hashes, i.e. the
      restart did not make the replica contradict its pre-crash self.
    """
    honest = [r for r in cluster.replicas if r.replica_id in cluster.honest_ids]
    longest = max(
        (r.ledger.all_hashes() for r in honest), key=len, default=[]
    )
    for replica in cluster.replicas:
        manager = replica.subsystems.get("recovery")
        if manager is None or manager.restarts == 0:
            continue
        rid = replica.replica_id
        chain = replica.ledger.all_hashes()
        if chain != longest[: len(chain)]:
            return InvariantResult(
                RECOVERY,
                False,
                f"replica {rid}: rejoined ledger diverges from honest prefix",
            )
        if manager.caught_up_at is None:
            return InvariantResult(
                RECOVERY,
                False,
                f"replica {rid}: catchup stalled (state={manager.state!r}, "
                f"retries={manager.fetch_retries})",
            )
        voted = {}
        for vote in manager.wal.replay():
            if not isinstance(vote, Vote):
                continue
            key = (vote.epoch, vote.height)
            earlier = voted.setdefault(key, vote.block_hash)
            if earlier != vote.block_hash:
                return InvariantResult(
                    RECOVERY,
                    False,
                    f"replica {rid}: WAL shows conflicting votes at "
                    f"epoch {vote.epoch} height {vote.height}",
                )
    return InvariantResult(RECOVERY, True)


def check_guard_flagging(
    cluster: "Cluster",
    violation_window: Tuple[float, float],
    grace: float,
    safe_factor: float = 3.0,
) -> InvariantResult:
    """No unflagged commit while the small-message bound is violated.

    The degradation contract of :mod:`repro.guard`: once the adversary
    has been inflating a link past Δ for at least ``grace`` seconds,
    every block an honest replica commits inside the violation window
    must carry the at-risk flag — *unless* the cluster has certified a
    replacement Δ of at least ``safe_factor`` × the original bound, in
    which case the inflated delays are inside the model again and the
    commit is legitimately clean.

    The check is per honest replica against its own monitor's commit
    records and Δ timeline; a non-vacuity detail reports how many
    in-window commits were actually examined.
    """
    t1, t2 = violation_window
    start = t1 + grace
    honest = [r for r in cluster.replicas if r.replica_id in cluster.honest_ids]
    guarded = [(r, r.subsystems.get("guard")) for r in honest]
    guarded = [(r, guard) for r, guard in guarded if guard is not None]
    if not guarded:
        return InvariantResult(
            GUARD_FLAGGING, False, "no synchrony monitors attached to honest replicas"
        )
    examined = 0
    for replica, guard in guarded:
        base_delta = guard.delta_history[0][1]
        for record in guard.commit_records:
            if not start <= record.time < t2:
                continue
            examined += 1
            if record.flagged:
                continue
            installed = guard.delta_at(record.time)
            if installed >= safe_factor * base_delta:
                continue
            return InvariantResult(
                GUARD_FLAGGING,
                False,
                f"replica {replica.replica_id}: silent commit at height "
                f"{record.height} (t={record.time:.3f}s) during the violation "
                f"window with effective Δ={installed * 1e3:.1f}ms < "
                f"{safe_factor:g}x base",
            )
    if examined == 0:
        return InvariantResult(
            GUARD_FLAGGING,
            True,
            "no in-window commits to examine (vacuously satisfied)",
        )
    return InvariantResult(
        GUARD_FLAGGING, True, f"{examined} in-window commits flagged or re-certified"
    )


def check_bad_vote_attribution(cluster: "Cluster", faulty_id: int) -> InvariantResult:
    """Batch bisection attributed the corrupted flood — and only it.

    For the bad-vote scenarios (``ProtocolConfig.crypto_batch`` on, one
    Byzantine replica corrupting every vote signature it sends): some
    honest replica must have bisected a failing vote flood down to the
    faulty voter and excluded it, and **no honest voter may ever be
    attributed** — exactness of the bisection is the whole point, since
    an exclusion is an accusation.
    """
    honest = [r for r in cluster.replicas if r.replica_id in cluster.honest_ids]
    if not honest:
        return InvariantResult(BAD_VOTE_ATTRIBUTION, False, "no honest replicas")
    false_positives = sorted(
        {voter for replica in honest for voter in replica.votes.excluded} - {faulty_id}
    )
    if false_positives:
        return InvariantResult(
            BAD_VOTE_ATTRIBUTION,
            False,
            f"honest voters falsely attributed: {false_positives}",
        )
    attributed = [r.replica_id for r in honest if faulty_id in r.votes.excluded]
    if not attributed:
        return InvariantResult(
            BAD_VOTE_ATTRIBUTION,
            False,
            f"no honest replica attributed voter {faulty_id} despite the corrupted flood",
        )
    return InvariantResult(
        BAD_VOTE_ATTRIBUTION,
        True,
        f"{len(attributed)}/{len(honest)} honest replicas excluded voter {faulty_id}",
    )


def check_height_agreement(cluster: "Cluster") -> InvariantResult:
    """Per-height agreement across overlapping pipelined commit windows.

    Stronger than final-ledger agreement: it examines every commit
    *observation* recorded during the run — pre-crash commits and rejoin
    re-commits included — so a transient per-height disagreement that a
    later restart papered over in the final ledgers still fails here.
    With ``pipeline_depth > 1`` several 2Δ windows elapse concurrently
    and in whatever order the scheduler serves them; whatever that order,
    no height may ever be observed committed as two different blocks.
    """
    collector = cluster.collector
    by_height: dict = {}
    for replica_id in sorted(cluster.honest_ids):
        for _t, height, block_hash, _parent in collector.commit_records_by_replica.get(
            replica_id, []
        ):
            by_height.setdefault(height, {}).setdefault(block_hash, set()).add(replica_id)
    for height in sorted(by_height):
        variants = by_height[height]
        if len(variants) > 1:
            detail = ", ".join(
                f"{short_hex(h)} by replicas {sorted(rids)}"
                for h, rids in sorted(variants.items())
            )
            return InvariantResult(
                HEIGHT_AGREEMENT, False, f"height {height} committed as {detail}"
            )
    return InvariantResult(HEIGHT_AGREEMENT, True, f"{len(by_height)} heights examined")


def check_certified_prefix(cluster: "Cluster") -> InvariantResult:
    """Each honest commit stream only ever *extends* its committed prefix.

    Three claims per honest replica, over its commit observations in
    order: height ``h`` never commits before ``h − 1`` has (prefix-commit
    safety — the property the overlapping windows must not break); a
    height observed twice (rejoin re-commit) carries the same hash both
    times; and every first commit at ``h`` links by parent hash onto the
    block committed at ``h − 1``.  A restarted replica may resume above a
    silently installed catchup snapshot, so for rejoiners a stream gap is
    accepted when the final ledger covers it.
    """
    collector = cluster.collector
    replicas_by_id = {r.replica_id: r for r in cluster.replicas}
    for replica_id in sorted(cluster.honest_ids):
        replica = replicas_by_id[replica_id]
        manager = replica.subsystems.get("recovery")
        restarted = manager is not None and manager.restarts > 0
        genesis_hash = replica.ledger.committed_hash_at(0)
        seen: dict = {}
        for _t, height, block_hash, parent in collector.commit_records_by_replica.get(
            replica_id, []
        ):
            prev = seen.get(height)
            if prev is not None:
                if prev != block_hash:
                    return InvariantResult(
                        CERTIFIED_PREFIX,
                        False,
                        f"replica {replica_id}: height {height} re-committed as "
                        f"{short_hex(block_hash)} after {short_hex(prev)}",
                    )
                continue
            if height == 1:
                below = genesis_hash
            else:
                below = seen.get(height - 1)
                if below is None and restarted:
                    # Catchup installs already-committed prefixes without
                    # firing commit listeners; trust the final ledger for
                    # the skipped region.
                    below = replica.ledger.committed_hash_at(height - 1)
            if below is None:
                return InvariantResult(
                    CERTIFIED_PREFIX,
                    False,
                    f"replica {replica_id}: committed height {height} before "
                    f"height {height - 1}",
                )
            if parent != below:
                return InvariantResult(
                    CERTIFIED_PREFIX,
                    False,
                    f"replica {replica_id}: commit at height {height} does not "
                    f"extend the block committed at height {height - 1}",
                )
            seen[height] = block_hash
    return InvariantResult(CERTIFIED_PREFIX, True)


def check_all(
    cluster: "Cluster",
    recovery_time: Optional[float] = None,
    gap_bound: Optional[float] = None,
) -> List[InvariantResult]:
    """Run every applicable invariant; liveness only when bounds are given."""
    results = [
        check_agreement(cluster),
        check_certified_chain(cluster),
        check_height_agreement(cluster),
        check_certified_prefix(cluster),
    ]
    if recovery_time is not None and gap_bound is not None:
        results.append(check_bounded_gap(cluster, recovery_time, gap_bound))
    results.append(check_recovery(cluster))
    return results


def violations(results: Sequence[InvariantResult]) -> List[InvariantResult]:
    """The failing subset, in report order."""
    return [r for r in results if not r.ok]
