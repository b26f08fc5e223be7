"""Chained HotStuff baseline (Yin et al., PODC 2019).

The state-of-the-art *partially synchronous* protocol the paper compares
against: n = 3f + 1 replicas, quorum 2f + 1, one block per view, linear
communication (votes and new-view messages go to the next leader only),
and the three-chain commit rule.  There is no synchrony bound anywhere on
the critical path — latency is three proposal/vote exchanges — but fault
tolerance drops to f < n/3, which is precisely the trade-off the paper's
comparison highlights.

Implemented rules (event-driven formulation, Algorithm 4/5 of the paper):

* **Vote** for a proposal ``b`` in the replica's current view if ``b``
  extends the locked block or carries a justify ranking above the lock.
* **Lock** (two-chain) on ``b'`` once a certified grandchild exists.
* **Commit** (three-chain) block ``b`` when ``b ← b' ← b''`` are linked by
  direct parent edges and ``b''`` is certified.
* **Pacemaker**: exponential back-off timeouts; on timeout a replica
  advances its view and sends its highest QC to the next leader, who
  proposes after collecting 2f + 1 new-view messages (or a fresh QC).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

from ..codec import encode
from ..consensus.pacemaker import Pacemaker
from ..consensus.replica import BaseReplica
from ..consensus.validators import ValidatorSet
from ..config import ProtocolConfig
from ..crypto.hashing import Digest
from ..crypto.signatures import Signer
from ..errors import BlockStoreError, ConfigError, VerificationError
from ..mempool.mempool import Mempool
from ..types.block import Block, make_block
from ..types.certificates import Certificate, Vote, genesis_qc
from ..types.messages import HSNewViewMsg, HSProposalMsg, VoteMsg

#: Signing domain for new-view messages.
NEWVIEW_DOMAIN = "hs-newview"


class HotStuffReplica(BaseReplica):
    """One chained HotStuff replica (see module docstring)."""

    protocol_name = "hotstuff"

    HANDLERS = {
        HSProposalMsg: "on_proposal",
        VoteMsg: "on_vote",
        HSNewViewMsg: "on_new_view",
    }

    def __init__(
        self,
        replica_id: int,
        validators: ValidatorSet,
        config: ProtocolConfig,
        signer: Signer,
        mempool: Optional[Mempool] = None,
    ) -> None:
        super().__init__(replica_id, validators, config, signer, mempool)
        if config.pipeline_depth > 1:
            raise ConfigError(
                "pipeline_depth > 1 is only supported by alterbft "
                f"(got {config.pipeline_depth} for {self.protocol_name})"
            )
        self.view = 1
        self.high_qc: Certificate = genesis_qc(
            self.protocol_name, self.store.genesis.block_hash
        )
        self.locked_qc: Certificate = self.high_qc
        self.last_voted_view = 0
        self.pacemaker: Optional[Pacemaker] = None
        self._justify_of: Dict[Digest, Certificate] = {
            self.store.genesis.block_hash: self.high_qc
        }
        self._proposed_views: Set[int] = set()
        # New-view accounting: view → senders seen.
        self._new_views: Dict[int, Set[int]] = {}
        # Commit decisions whose ancestor blocks are still in flight
        # (large proposals are only *eventually* timely).
        self._pending_commits: Set[Digest] = set()
        #: Number of view timeouts this replica experienced (reporting).
        self.view_timeouts = 0

    # ------------------------------------------------------------------
    # Lifecycle and pacemaker
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        assert self.ctx is not None
        self.pacemaker = Pacemaker(
            self.ctx,
            base_timeout=self.config.epoch_timeout,
            growth=self.config.epoch_timeout_growth,
            on_timeout=self._on_view_timeout,
        )
        self.pacemaker.enter_epoch(self.view, made_progress=True)
        if self.is_leader(self.view):
            self._propose()

    def _timer_pacemaker(self, payload: Any) -> None:
        assert self.pacemaker is not None
        self.pacemaker.handle_timer(payload)

    def _advance_view(self, new_view: int, made_progress: bool) -> None:
        if new_view <= self.view:
            return
        self.view = new_view
        assert self.pacemaker is not None
        self.pacemaker.enter_epoch(new_view, made_progress)
        self.mempool.requeue_inflight()

    def _on_view_timeout(self, view: int) -> None:
        if view != self.view:
            return
        self.view_timeouts += 1
        self.event("view_timeout", epoch=view)
        next_view = self.view + 1
        self._advance_view(next_view, made_progress=False)
        msg = HSNewViewMsg(
            sender=self.replica_id,
            view=next_view,
            high_qc=self.high_qc,
            signature=self.signer.digest_and_sign(NEWVIEW_DOMAIN, encode(next_view)),
        )
        leader = self.validators.leader_of(next_view)
        if leader == self.replica_id:
            self.on_new_view(self.replica_id, msg)
        else:
            self.send(leader, msg)

    # ------------------------------------------------------------------
    # Proposing
    # ------------------------------------------------------------------

    def _timer_idle_propose(self, view: Any) -> None:
        self._idle_timer_armed = False
        if view == self.view and self.view not in self._proposed_views:
            self._propose(force=True)

    def _propose(self, force: bool = False) -> None:
        if not self.is_leader(self.view) or self.view in self._proposed_views:
            return
        justify = self.high_qc
        exclude = self._uncommitted_tx_keys(justify.block_hash)
        if exclude is None:
            # Votes can outrun the proposals they certify: part of the
            # uncommitted chain is still in flight.  Wait for it so we
            # can build on (and deduplicate against) the full prefix —
            # on_proposal retriggers leading when the gap fills.
            return
        if not force and self.defer_if_idle(self.view):
            return
        self._proposed_views.add(self.view)
        batch = self.mempool.take_batch(
            self.config.max_batch, self.config.max_payload_bytes, exclude=exclude
        )
        block = make_block(
            epoch=self.view,
            height=justify.height + 1,
            parent=justify.block_hash,
            transactions=batch,
            proposer=self.replica_id,
        )
        msg = HSProposalMsg(
            block=block, signature=self.sign_proposal(block.block_hash), justify=justify
        )
        self.event(
            "propose", block.block_hash, epoch=self.view, height=block.height, txs=len(batch)
        )
        self.broadcast(msg)

    def _uncommitted_tx_keys(self, tip_hash: Digest) -> Optional[Set]:
        """Keys of transactions in the uncommitted chain above the ledger.

        Leaders rotate every view while commits lag two views behind, so
        without this exclusion a new leader would re-propose transactions
        already in flight in its parent chain.  Returns None when part of
        that chain is unknown locally (proposals still in flight) — the
        caller must not propose yet.
        """
        keys: Set = set()
        reached_known_base = False
        for header in self.store.walk_ancestors(tip_hash):
            if header.height == 0 or self.ledger.is_committed(header):
                reached_known_base = True
                break
            if not self.store.has_payload(header.block_hash):
                return None
            for tx in self.store.payload(header.block_hash).transactions:
                keys.add((tx.client_id, tx.seq))
        if not reached_known_base and not self.store.has_header(tip_hash):
            return None
        if not reached_known_base:
            return None  # walk ended at a header gap mid-chain
        return keys

    # ------------------------------------------------------------------
    # Proposal handling: chain state update, locking, commit, voting
    # ------------------------------------------------------------------

    def on_proposal(self, src: int, msg: HSProposalMsg) -> None:
        block = msg.block
        if type(block) is not Block or not block.well_formed():
            raise VerificationError("ill-typed proposal block")
        if block.epoch < 1 or block.header.proposer != self.validators.leader_of(block.epoch):
            raise VerificationError("proposal from a non-leader")
        if not self.verify_proposal_signature(
            block.header.proposer, block.block_hash, msg.signature
        ):
            raise VerificationError("bad proposer signature")
        if not self.verify_qc(msg.justify):
            raise VerificationError("invalid justify certificate")
        if msg.justify.block_hash != block.parent or block.height != msg.justify.height + 1:
            raise VerificationError("proposal does not extend its justify certificate")
        if not block.validate_payload():
            raise VerificationError("proposal payload mismatch")

        self.store.add_block(block)
        # Header and payload travel as one message in HotStuff; both
        # milestones land at delivery.
        self.mark("header_deliver", block.block_hash, epoch=block.epoch, height=block.height)
        self.mark("payload_deliver", block.block_hash)
        self._justify_of[block.block_hash] = msg.justify
        if self._pending_commits:
            self._retry_pending_commits()
        self._update_chain_state(msg.justify)
        # A leader may have been waiting for exactly this block (its QC
        # arrived first); now it can build on it.
        self._maybe_lead()
        # A valid proposal for a higher view is proof the network moved on.
        self._advance_view(block.epoch, made_progress=True)

        if block.epoch == self.view and block.epoch > self.last_voted_view:
            if self._safe_to_vote(block, msg.justify):
                self.last_voted_view = block.epoch
                vote = Vote.create(
                    self.signer, self.protocol_name, block.epoch, block.height, block.block_hash
                )
                next_leader = self.validators.leader_of(block.epoch + 1)
                self.event("vote", block.block_hash, epoch=block.epoch, height=block.height)
                if next_leader == self.replica_id:
                    self.on_vote(self.replica_id, VoteMsg(vote=vote))
                else:
                    self.send(next_leader, VoteMsg(vote=vote))
                # Voting ends the view.
                self._advance_view(block.epoch + 1, made_progress=True)
                if self.is_leader(self.view):
                    self._maybe_lead()

    def _safe_to_vote(self, block: Block, justify: Certificate) -> bool:
        """HotStuff safeNode: extend the lock, or see a higher justify."""
        if justify.rank > self.locked_qc.rank:
            return True
        return self.store.extends(block.parent, self.locked_qc.block_hash)

    def _update_chain_state(self, qc: Certificate) -> None:
        """Pre-commit / commit / decide bookkeeping from a certificate."""
        if qc.rank > self.high_qc.rank:
            self.high_qc = qc
            if qc.height > 0:
                # First sight of a certificate — formed locally (leader)
                # or learned from a justify / new-view message.
                self.mark("certify", qc.block_hash, epoch=qc.epoch, height=qc.height)
        b2_hash = qc.block_hash  # certified block b''
        qc1 = self._justify_of.get(b2_hash)
        if qc1 is None:
            return
        if qc1.rank > self.locked_qc.rank:
            self.locked_qc = qc1  # two-chain: lock on b'
        b1_hash = qc1.block_hash
        qc0 = self._justify_of.get(b1_hash)
        if qc0 is None:
            return
        b0_hash = qc0.block_hash
        b2 = self.store.get_header(b2_hash)
        b1 = self.store.get_header(b1_hash)
        if b2 is None or b1 is None:
            return
        # Three-chain with direct parent links commits b0.
        if b2.parent == b1_hash and b1.parent == b0_hash:
            self._commit_or_defer(b0_hash)

    def _commit_or_defer(self, block_hash: Digest) -> None:
        """Commit a decided block, deferring while ancestors are in flight."""
        header = self.store.get_header(block_hash)
        if header is None or header.height <= self.ledger.height:
            return
        try:
            self.commit_through(block_hash)
            self._pending_commits.discard(block_hash)
        except BlockStoreError:
            # An ancestor proposal is still in flight (eventually timely);
            # retried from on_proposal when the gap fills.
            self._pending_commits.add(block_hash)

    def _retry_pending_commits(self) -> None:
        pending = sorted(
            self._pending_commits,
            key=lambda h: self.store.header(h).height if self.store.has_header(h) else 0,
        )
        for block_hash in pending:
            header = self.store.get_header(block_hash)
            if header is not None and header.height <= self.ledger.height:
                self._pending_commits.discard(block_hash)
                continue
            self._commit_or_defer(block_hash)

    # ------------------------------------------------------------------
    # Votes and new-view messages (leader side)
    # ------------------------------------------------------------------

    def on_vote(self, src: int, msg: VoteMsg) -> None:
        qc = self.record_vote(src, msg.vote)
        if qc is None:
            return
        self._update_chain_state(qc)
        if self.pacemaker is not None:
            self.pacemaker.record_progress()
        self._advance_view(qc.epoch + 1, made_progress=True)
        self._maybe_lead()

    def on_new_view(self, src: int, msg: HSNewViewMsg) -> None:
        if msg.sender != src or not self.validators.is_valid_replica(msg.sender):
            raise VerificationError("new-view sender mismatch")
        if not self.signer.verify_digest(
            msg.sender, NEWVIEW_DOMAIN, encode(msg.view), msg.signature
        ):
            raise VerificationError("bad new-view signature")
        if not self.verify_qc(msg.high_qc):
            raise VerificationError("new-view carries an invalid certificate")
        self._update_chain_state(msg.high_qc)
        senders = self._new_views.setdefault(msg.view, set())
        senders.add(msg.sender)
        if len(senders) >= self.validators.quorum:
            self._advance_view(msg.view, made_progress=False)
            self._maybe_lead(allow_new_view_quorum=True)

    def _maybe_lead(self, allow_new_view_quorum: bool = False) -> None:
        """Propose in the current view if we lead it and have a trigger."""
        if not self.is_leader(self.view) or self.view in self._proposed_views:
            return
        has_qc_trigger = self.high_qc.epoch == self.view - 1
        has_nv_trigger = len(self._new_views.get(self.view, ())) >= self.validators.quorum
        if has_qc_trigger or has_nv_trigger or allow_new_view_quorum:
            self._propose()
