"""Journalling, checkpointing and catchup for the AlterBFT protocol family.

One :class:`RecoveryManager` is attached per replica
(:meth:`~repro.consensus.replica.BaseReplica.attach`) when the experiment
enables checkpointing or a ``crash-recover`` fault.  It owns three duties:

**Journalling.**  The manager holds the replica's write-ahead log
(:mod:`repro.recovery.wal`) and appends what the replica's ``journal``
hook hands it, before the replica acts on it; after a crash
:meth:`RecoveryManager.restart` replays it and starts catchup.

**Checkpointing** (steady state).  Every ``checkpoint_interval``
committed blocks, the replica signs a checkpoint vote over
``(height, block_hash, cumulative state digest)`` and broadcasts it — a
*small* message.  f+1 matching votes aggregate into one
:class:`~repro.types.certificates.AggregateCheckpointCertificate`:
because at least one signer is honest and honest replicas only attest
committed prefixes, the certificate is a *transferable commit proof* —
something AlterBFT's temporal 2Δ commit rule otherwise never produces.
A fresh certificate lets the block store prune everything below it.

**Catchup** (rejoin).  A replica restarted from its WAL broadcasts a
small ``StatusRequest``; from f+1 responses it learns (a) a safe epoch
to join — the (f+1)-th largest reported epoch is at most some honest
replica's epoch — (b) the highest checkpoint certificate, and (c) the
highest certified tip.  It then fetches the checkpoint snapshot as a
*large* message from one provider at a time, with a per-provider timeout
that rotates to an alternate provider so a Byzantine withholder cannot
stall catchup, and installs it into the ledger only after its chained
digest matches the certificate.  The certified suffix above comes through
the block fetch (:mod:`repro.consensus.fetch`) into the block store only:
it commits later through normal consensus (certified ≠ committed).

The manager never imports ``repro.core.protocol``: it drives the replica
through a narrow surface (``verify_qc``, ``fetch``,
``drop_block_indexes``, ``restart_from_wal``, ``_finish_catchup``,
send/broadcast/timers), which also keeps the import graph acyclic — a
test walks the imports to hold both to it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..config import CATCHUP_RETRY
from ..consensus.quorum import QuorumCollector
from ..crypto.hashing import sha256
from ..types.block import Block
from ..types.certificates import CHECKPOINT, Certificate, CheckpointVote
from ..types.messages import (
    CheckpointVoteMsg,
    SnapshotRequestMsg,
    SnapshotResponseMsg,
    StatusRequestMsg,
    StatusResponseMsg,
)

#: Catchup phases, in order.
IDLE = "idle"
STATUS = "status"
SNAPSHOT = "snapshot"
RANGE = "range"
DONE = "done"


class RecoveryManager:
    """Per-replica journal, checkpointing + catchup state machine."""

    name = "recovery"
    HANDLERS = {
        CheckpointVoteMsg: "on_checkpoint_vote",
        StatusRequestMsg: "on_status_request",
        StatusResponseMsg: "on_status_response",
        SnapshotRequestMsg: "on_snapshot_request",
        SnapshotResponseMsg: "on_snapshot_response",
    }
    TIMERS = {"recovery_retry": "on_retry"}

    def __init__(self, replica, wal) -> None:
        self.replica = replica
        #: The durable medium: outlives every ``restart`` of the replica.
        self.wal = wal
        self.interval = replica.config.checkpoint_interval
        # Retry must exceed a round trip of small messages; the large
        # response itself is eventually timely, so rotating providers
        # (rather than waiting forever on one) is what preserves
        # liveness under withholding.
        self.retry_timeout = max(CATCHUP_RETRY, 3 * replica.config.delta)
        #: Highest checkpoint certificate known (served to rejoiners).
        self.latest_cert: Optional[Certificate] = None
        #: Checkpoint votes until their certificate; pruned at the latest.
        self.checkpoints = QuorumCollector(replica, CHECKPOINT)
        # Catchup state.
        self.state = IDLE
        self._status_responses: Dict[int, StatusResponseMsg] = {}
        self._providers: List[int] = []
        self._provider_idx = 0
        self._fetch_attempt = 0
        self._target_cert: Optional[Certificate] = None
        self._target_height = 0
        self._join_epoch = 1
        #: Simulated time at which catchup finished and the ledger caught
        #: up to the height reported during status (None until then).
        self.caught_up_at: Optional[float] = None
        #: Diagnostics for tests and E12.
        self.restarts = 0
        self._retries = 0

    # -- small helpers -------------------------------------------------------

    @property
    def _quorum(self) -> int:
        return self.replica.validators.quorum

    def _current_provider(self) -> int:
        return self._providers[self._provider_idx % len(self._providers)]

    @property
    def fetch_retries(self) -> int:
        """Status, snapshot and (since the restart) fetch requests re-sent."""
        return self._retries + self.replica.fetch.retries

    def _arm_retry(self) -> None:
        self._fetch_attempt += 1
        self.replica.ctx.set_timer(
            self.retry_timeout, "recovery_retry", (self.state, self._fetch_attempt)
        )

    # -- journal -------------------------------------------------------------

    def journal(self, record: object) -> None:
        """Journal hook: make ``record`` durable before the replica acts on it."""
        self.wal.append(record)

    def restart(self) -> None:
        """Bring the crashed replica back: replay the journal, then catch up."""
        self.replica.restart_from_wal(self.wal.replay())
        self.start_catchup()

    # ======================================================================
    # Checkpointing (steady state)
    # ======================================================================

    def on_committed(self, blocks: List[Block]) -> None:
        """Commit hook: emit checkpoint votes, detect catchup completion."""
        if self.interval > 0:
            for block in blocks:
                if block.height % self.interval == 0:
                    self._emit_checkpoint_vote(block)
        self._maybe_prune()
        self._note_if_caught_up()

    def _note_if_caught_up(self) -> None:
        """Catchup is over and the ledger reached the status-time target."""
        if (
            self.state == DONE
            and self.caught_up_at is None
            and self.replica.ledger.height >= self._target_height
        ):
            self.caught_up_at = self.replica.now
            self.replica.event("recovery_caught_up", height=self.replica.ledger.height)

    def _emit_checkpoint_vote(self, block: Block) -> None:
        vote = CheckpointVote.create(
            self.replica.signer,
            self.replica.protocol_name,
            block.height,
            block.block_hash,
            self.replica.ledger.state_digest(block.height),
        )
        # include_self: our own vote loops back through on_checkpoint_vote.
        self.replica.broadcast(CheckpointVoteMsg(vote=vote))

    def on_checkpoint_vote(self, src: int, msg: CheckpointVoteMsg) -> None:
        self.checkpoints.check(src, msg.vote)
        cert = self.checkpoints.add(msg.vote)
        if cert is not None:
            self._record_cert(cert)

    def _record_cert(self, cert: Certificate) -> None:
        if self.latest_cert is not None and cert.height <= self.latest_cert.height:
            return
        self.latest_cert = cert
        self.checkpoints.release(cert.height)
        self.replica.event("checkpoint", height=cert.height)
        self._maybe_prune()

    def _maybe_prune(self) -> None:
        """Prune below the checkpoint, capped at our own committed head.

        The certificate proves the prefix is committed *cluster-wide*,
        but a replica that has not yet committed that far itself still
        needs the intervening headers to extend its own ledger — pruning
        above the local head would sever its chain permanently.  Lagging
        replicas therefore prune lazily, as their own commits advance.
        """
        if self.latest_cert is None:
            return
        bound = min(self.latest_cert.height, self.replica.ledger.height)
        removed = self.replica.store.prune_below(bound)
        if removed:
            self.replica.drop_block_indexes(removed)
            self.replica.event("checkpoint_prune", below=bound, pruned=len(removed))

    # ======================================================================
    # Catchup (rejoin)
    # ======================================================================

    def start_catchup(self) -> None:
        """Kick off status discovery after a WAL replay."""
        self.restarts += 1
        self.state = STATUS
        self._status_responses.clear()
        self._providers = []
        self._provider_idx = 0
        self.caught_up_at = None
        self.replica.event("recovery_status_request")
        self.replica.broadcast(
            StatusRequestMsg(sender=self.replica.replica_id), include_self=False
        )
        self._arm_retry()

    def on_retry(self, payload: Tuple[str, int]) -> None:
        """Per-provider timeout: rotate to an alternate and re-request."""
        phase, attempt = payload
        if phase != self.state or attempt != self._fetch_attempt:
            return  # stale timer: that request already succeeded
        self._retries += 1
        if self.state == STATUS:
            self.replica.broadcast(
                StatusRequestMsg(sender=self.replica.replica_id), include_self=False
            )
            self._arm_retry()
        elif self.state == SNAPSHOT:
            self._provider_idx += 1
            self._send_snapshot_request()

    # -- serving (every replica with a manager answers these) ----------------

    def on_status_request(self, src: int, msg: StatusRequestMsg) -> None:
        self.replica.send(
            src,
            StatusResponseMsg(
                sender=self.replica.replica_id,
                epoch=self.replica.epoch,
                ledger_height=self.replica.ledger.height,
                checkpoint=self.latest_cert,
                tip=self.replica.high_qc,
            ),
        )

    def on_snapshot_request(self, src: int, msg: SnapshotRequestMsg) -> None:
        if msg.to_height > self.replica.ledger.height:
            return  # we do not have that prefix; requester will rotate
        blocks = self.replica.ledger.blocks_in_range(msg.from_height, msg.to_height)
        if blocks:
            self.replica.send(
                src, SnapshotResponseMsg(from_height=msg.from_height, blocks=tuple(blocks))
            )

    # -- status phase ---------------------------------------------------------

    def on_status_response(self, src: int, msg: StatusResponseMsg) -> None:
        if self.state != STATUS or src == self.replica.replica_id:
            return
        if not self.replica.verify_qc(msg.tip):
            return
        if msg.checkpoint is not None and not self.checkpoints.certifies(msg.checkpoint):
            return
        self._status_responses[src] = msg
        if len(self._status_responses) < self._quorum:
            return
        responses = list(self._status_responses.values())
        # Safe join epoch: the (f+1)-th largest reported epoch is ≤ at
        # least one honest replica's epoch, so joining it never runs
        # ahead of every honest replica.
        epochs = sorted((r.epoch for r in responses), reverse=True)
        self._join_epoch = max(epochs[self._quorum - 1], self.replica.epoch)
        self._target_height = max(r.ledger_height for r in responses)
        certs = [r.checkpoint for r in responses if r.checkpoint is not None]
        self._target_cert = max(certs, key=lambda c: c.height, default=None)
        # Provider preference: highest ledger first; deterministic tiebreak.
        self._providers = sorted(
            self._status_responses, key=lambda rid: (-self._status_responses[rid].ledger_height, rid)
        )
        self._provider_idx = 0
        self.replica.event(
            "recovery_status",
            join_epoch=self._join_epoch,
            target_height=self._target_height,
            checkpoint=self._target_cert.height if self._target_cert else 0,
        )
        if (
            self._target_cert is not None
            and self._target_cert.height > self.replica.ledger.height
        ):
            self.state = SNAPSHOT
            self._send_snapshot_request()
        else:
            self._enter_range_phase()

    # -- snapshot phase -------------------------------------------------------

    def _send_snapshot_request(self) -> None:
        assert self._target_cert is not None
        self.replica.send(
            self._current_provider(),
            SnapshotRequestMsg(
                sender=self.replica.replica_id,
                from_height=self.replica.ledger.height,
                to_height=self._target_cert.height,
            ),
        )
        self._arm_retry()

    def on_snapshot_response(self, src: int, msg: SnapshotResponseMsg) -> None:
        if self.state != SNAPSHOT:
            return
        cert = self._target_cert
        assert cert is not None
        ledger = self.replica.ledger
        if msg.from_height != ledger.height or not msg.blocks:
            return
        # Verify the chain links our head to exactly the certified
        # checkpoint, and that the chained digest matches the
        # certificate — a Byzantine provider cannot smuggle in a fake
        # prefix, only withhold (which the retry timer handles).
        prev = ledger.head
        digest = ledger.state_digest(ledger.height)
        for block in msg.blocks:
            if block.height != prev.height + 1 or block.parent != prev.block_hash:
                return
            if not block.validate_payload():
                return
            digest = sha256(digest + block.block_hash)
            prev = block
        if prev.height != cert.height or prev.block_hash != cert.block_hash:
            return
        if digest != cert.state_digest:
            return
        ledger.install_snapshot(list(msg.blocks))
        # The new head must be reachable in the block store so that
        # chain_between / commit_through can anchor on it later.
        self.replica.store.add_block(msg.blocks[-1])
        self.latest_cert = max(
            (c for c in (self.latest_cert, cert) if c is not None),
            key=lambda c: c.height,
        )
        self.replica.event("recovery_snapshot", height=ledger.height, blocks=len(msg.blocks))
        self._enter_range_phase()

    # -- block range phase ----------------------------------------------------

    def _enter_range_phase(self) -> None:
        """Fetch the chain above our committed head whenever anything
        certified lies above it (reported in status or learned from live
        traffic since), the current provider first; any answer ends it."""
        best = max((r.tip.height for r in self._status_responses.values()), default=0)
        ledger_height = self.replica.ledger.height
        if max(best, self.replica.high_qc.height) <= ledger_height:
            self._finish()
            return
        self.state = RANGE
        self.replica.fetch.want(ledger_height + 1, providers=(self._current_provider(),))

    def on_fetched(self, justify: Certificate, blocks: Tuple[Block, ...]) -> None:
        """Fetch hook: the range phase ends with the first chain installed."""
        if self.state != RANGE:
            return
        self.replica.event("recovery_range", tip_height=justify.height, blocks=len(blocks))
        self._finish()

    # -- completion ------------------------------------------------------------

    def _finish(self) -> None:
        self.state = DONE
        self._fetch_attempt += 1  # invalidate any pending retry timer
        self.replica._finish_catchup(self._join_epoch)
        # Already at the status-time target (e.g. nothing was missed, or
        # the snapshot alone covered it): mark caught up immediately.
        self._note_if_caught_up()
