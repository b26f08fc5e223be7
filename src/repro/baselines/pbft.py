"""PBFT baseline (Castro & Liskov, OSDI 1999 — adapted to chained blocks).

The classical partially synchronous BFT protocol: n = 3f + 1 replicas,
quorum 2f + 1, a stable leader per view, and three phases per block
(pre-prepare → prepare → commit) with **quadratic** small-message
complexity — the contrast to HotStuff's linear votes and to AlterBFT's
leaner 2f + 1 cluster in the paper's comparison table.

Adaptations, documented in DESIGN.md:

* Slots carry *chained blocks* (each block names its parent) so the whole
  library shares one ledger abstraction.  Consequences:
  - a replica sends its **commit** vote for seq ``s`` only once the whole
    prefix up to ``s`` is prepared (the "prepared-prefix" rule), which
    guarantees view changes can always rebuild a connected chain below
    any possibly-committed block;
  - view-change messages carry a **checkpoint proof** (the commit
    certificate for the sender's last committed block), replacing PBFT's
    stable-checkpoint machinery.
* Re-proposals after a view change are *derived deterministically* by
  every replica from the 2f + 1 view-change messages, so the new leader
  cannot equivocate about them.
* A replica a new view shows behind a proven checkpoint fetches the chain
  under its provider's head commit certificate, which with the hash links
  proves the prefix (the checkpoint proof's own argument).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..codec import encode
from ..consensus.pacemaker import Pacemaker
from ..consensus.replica import BaseReplica
from ..consensus.validators import ValidatorSet
from ..config import ProtocolConfig
from ..crypto.hashing import Digest
from ..crypto.signatures import Signer
from ..errors import BlockStoreError, VerificationError
from ..mempool.mempool import Mempool
from ..types.block import Block, BlockHeader, make_block
from ..types.certificates import VOTE, Certificate, Vote
from ..types.messages import (
    PBFTCommitMsg,
    PBFTNewViewMsg,
    PBFTPrePrepareMsg,
    PBFTPrepareMsg,
    PBFTViewChangeMsg,
)

#: Vote phases.
PREPARE_PHASE = 1
COMMIT_PHASE = 2

#: Signing domains.
VIEWCHANGE_DOMAIN = "pbft-viewchange"
NEWVIEW_DOMAIN = "pbft-newview"


class PBFTReplica(BaseReplica):
    """One PBFT replica (see module docstring)."""

    protocol_name = "pbft"

    #: A fetch is served under the head's commit certificate.
    TIP_PHASE = COMMIT_PHASE

    HANDLERS = {
        PBFTPrePrepareMsg: "on_preprepare",
        PBFTPrepareMsg: "on_prepare",
        PBFTCommitMsg: "on_commit",
        PBFTViewChangeMsg: "on_view_change",
        PBFTNewViewMsg: "on_new_view",
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
        self.view = 1
        self.in_view_change = False
        self.pacemaker: Optional[Pacemaker] = None
        # Accepted pre-prepares: view → seq → block.
        self._accepted: Dict[int, Dict[int, Block]] = {}
        # Pre-prepares that arrived before their predecessor: view → seq → msg.
        self._out_of_order: Dict[int, Dict[int, PBFTPrePrepareMsg]] = {}
        # Prepare certificates by seq (highest-view one kept).
        self._prepared: Dict[int, Tuple[Certificate, Block]] = {}
        self._prepare_voted: Set[Tuple[int, int]] = set()  # (view, seq)
        self._commit_voted: Set[Tuple[int, int]] = set()
        # Commit certificates awaiting in-order execution: seq → (block, qc).
        self._commit_ready: Dict[int, Tuple[Block, Certificate]] = {}
        # The ledger head's commit certificate: checkpoint proof and fetch tip.
        self._commit_qc: Optional[Certificate] = None
        # Certificates that formed before their pre-prepare arrived (votes
        # are small/fast; proposals are large/slower): block_hash → QC.
        self._orphan_prepare_qcs: Dict[Digest, Certificate] = {}
        self._orphan_commit_qcs: Dict[Digest, Certificate] = {}
        # View change accounting: view → sender → message.
        self._view_changes: Dict[int, Dict[int, PBFTViewChangeMsg]] = {}
        self._installed_views: Set[int] = set()
        self._vc_target = 0

    @property
    def epoch_changes(self) -> int:
        return self.view - 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        assert self.ctx is not None
        self.pacemaker = Pacemaker(
            self.ctx,
            base_timeout=self.config.epoch_timeout,
            growth=self.config.epoch_timeout_growth,
            on_timeout=self._on_progress_timeout,
        )
        self.pacemaker.enter_epoch(self.view, made_progress=True)
        if self.is_leader(self.view):
            self._propose_next()

    def _timer_pacemaker(self, payload: Any) -> None:
        assert self.pacemaker is not None
        self.pacemaker.handle_timer(payload)

    # ------------------------------------------------------------------
    # Leader: pre-prepare pipeline
    # ------------------------------------------------------------------

    def _chain_tip(self) -> Tuple[int, Digest]:
        """(seq, hash) of the tip of this leader's accepted chain."""
        accepted = self._accepted.get(self.view, {})
        if accepted:
            tip_seq = max(accepted)
            return tip_seq, accepted[tip_seq].block_hash
        return self.ledger.height, self.ledger.head.block_hash

    def _timer_idle_propose(self, view: Any) -> None:
        self._idle_timer_armed = False
        if view == self.view and not self.in_view_change:
            self._propose_next(force=True)

    def _propose_next(self, force: bool = False) -> None:
        if not self.is_leader(self.view) or self.in_view_change:
            return
        if not force and self.defer_if_idle(self.view):
            return
        tip_seq, tip_hash = self._chain_tip()
        seq = tip_seq + 1
        batch = self.mempool.take_batch(self.config.max_batch, self.config.max_payload_bytes)
        block = make_block(
            epoch=self.view,
            height=seq,
            parent=tip_hash,
            transactions=batch,
            proposer=self.replica_id,
        )
        msg = PBFTPrePrepareMsg(
            view=self.view, seq=seq, block=block, signature=self.sign_proposal(block.block_hash)
        )
        self.event("propose", block.block_hash, epoch=self.view, height=seq, txs=len(batch))
        self.broadcast(msg)

    # ------------------------------------------------------------------
    # Phase handlers
    # ------------------------------------------------------------------

    def on_preprepare(self, src: int, msg: PBFTPrePrepareMsg) -> None:
        block = msg.block
        if msg.view != block.epoch or msg.seq != block.height:
            raise VerificationError("pre-prepare view/seq does not match its block")
        if block.header.proposer != self.validators.leader_of(msg.view):
            raise VerificationError("pre-prepare from a non-leader")
        if not self.verify_proposal_signature(
            block.header.proposer, block.block_hash, msg.signature
        ):
            raise VerificationError("bad pre-prepare signature")
        if not block.validate_payload():
            raise VerificationError("pre-prepare payload mismatch")
        if msg.view != self.view or self.in_view_change:
            return
        accepted = self._accepted.setdefault(msg.view, {})
        if msg.seq in accepted:
            return  # first pre-prepare per (view, seq) wins
        # Chain linkage: the block must extend the previous accepted block
        # (or the committed head for the first sequence of the view).
        if msg.seq == self.ledger.height + 1:
            expected_parent = self.ledger.head.block_hash
        else:
            below = accepted.get(msg.seq - 1)
            if below is None:
                # Out of order: the leader's earlier pre-prepare is still
                # in flight (large messages are only eventually timely).
                self._out_of_order.setdefault(msg.view, {})[msg.seq] = msg
                return
            expected_parent = below.block_hash
        if block.parent != expected_parent:
            raise VerificationError("pre-prepare breaks the chain")
        self._accept_preprepare(msg.view, msg.seq, block)
        self._drain_out_of_order(msg.view)

    def _drain_out_of_order(self, view: int) -> None:
        """Process buffered pre-prepares whose predecessors have landed."""
        buffered = self._out_of_order.get(view)
        if not buffered:
            return
        accepted = self._accepted.setdefault(view, {})
        while True:
            next_seq = max(accepted) + 1 if accepted else self.ledger.height + 1
            msg = buffered.pop(next_seq, None)
            if msg is None:
                return
            below = accepted.get(next_seq - 1)
            expected_parent = (
                below.block_hash if below is not None else self.ledger.head.block_hash
            )
            if msg.block.parent != expected_parent:
                return  # evidence of a broken chain; timeout handles it
            self._accept_preprepare(view, next_seq, msg.block)

    def _accept_preprepare(self, view: int, seq: int, block: Block) -> None:
        self._accepted.setdefault(view, {})[seq] = block
        self.store.add_block(block)
        # PBFT pre-prepares carry header and payload together.
        self.mark("header_deliver", block.block_hash, epoch=view, height=seq)
        self.mark("payload_deliver", block.block_hash)
        if (view, seq) not in self._prepare_voted:
            self._prepare_voted.add((view, seq))
            vote = Vote.create(
                self.signer, self.protocol_name, view, seq, block.block_hash, phase=PREPARE_PHASE
            )
            # Recorded, not counted: PBFT's pinned fingerprints never counted it.
            self.mark("vote", block.block_hash, epoch=view, height=seq)
            self.broadcast(PBFTPrepareMsg(vote=vote))
        # Adopt certificates that formed before this pre-prepare landed.
        orphan = self._orphan_prepare_qcs.pop(block.block_hash, None)
        if orphan is not None:
            self._on_prepared(orphan)
        orphan = self._orphan_commit_qcs.pop(block.block_hash, None)
        if orphan is not None:
            self._commit_ready[orphan.height] = (block, orphan)
            self._execute_ready()

    def on_prepare(self, src: int, msg: PBFTPrepareMsg) -> None:
        if not VOTE.is_signed(msg.vote) or msg.vote.phase != PREPARE_PHASE:
            raise VerificationError("prepare message with wrong phase")
        qc = self.record_vote(src, msg.vote)
        if qc is None:
            return
        self._on_prepared(qc)

    def _on_prepared(self, qc: Certificate) -> None:
        seq = qc.height
        block = self._accepted.get(qc.epoch, {}).get(seq)
        if block is None:
            # Quorum formed before the pre-prepare arrived; keep the
            # certificate until the block shows up.
            self._orphan_prepare_qcs[qc.block_hash] = qc
            return
        if block.block_hash != qc.block_hash:
            return  # certificate for a block we did not accept
        existing = self._prepared.get(seq)
        if existing is None or qc.epoch > existing[0].epoch:
            if existing is None:
                self.mark("certify", block.block_hash, epoch=qc.epoch, height=seq)
            self._prepared[seq] = (qc, block)
        if self.pacemaker is not None:
            self.pacemaker.record_progress()
        self._send_commit_votes()
        if self.is_leader(self.view) and not self.in_view_change:
            # Pipeline: prepared tip → propose the next sequence.
            tip_seq, _ = self._chain_tip()
            if seq == tip_seq:
                self._propose_next()

    def _send_commit_votes(self) -> None:
        """Prepared-prefix rule: commit-vote seq s only when every
        sequence up to s is prepared (see module docstring)."""
        seq = self.ledger.height + 1
        while seq in self._prepared:
            qc, block = self._prepared[seq]
            key = (qc.epoch, seq)
            if key not in self._commit_voted and not self.in_view_change:
                self._commit_voted.add(key)
                vote = Vote.create(
                    self.signer,
                    self.protocol_name,
                    qc.epoch,
                    seq,
                    block.block_hash,
                    phase=COMMIT_PHASE,
                )
                self.broadcast(PBFTCommitMsg(vote=vote))
            seq += 1

    def on_commit(self, src: int, msg: PBFTCommitMsg) -> None:
        if not VOTE.is_signed(msg.vote) or msg.vote.phase != COMMIT_PHASE:
            raise VerificationError("commit message with wrong phase")
        qc = self.record_vote(src, msg.vote)
        if qc is None:
            return
        block = self._accepted.get(qc.epoch, {}).get(qc.height)
        if block is None:
            self._orphan_commit_qcs[qc.block_hash] = qc
            return
        if block.block_hash != qc.block_hash:
            return
        self._commit_ready[qc.height] = (block, qc)
        self._execute_ready()

    def _execute_ready(self) -> None:
        """Execute commit-certified blocks strictly in sequence order."""
        progressed = False
        while self.ledger.height + 1 in self._commit_ready:
            seq = self.ledger.height + 1
            block, qc = self._commit_ready.pop(seq)
            self.ledger.commit(block, self.now)
            self._commit_qc = qc
            self.mempool.remove_committed(block.payload.transactions)
            self.event(
                "commit", block.block_hash, epoch=block.epoch, height=seq, txs=len(block.payload)
            )
            progressed = True
        self.advance_horizon()
        if progressed and self.pacemaker is not None:
            self.pacemaker.record_progress()

    # ------------------------------------------------------------------
    # View change
    # ------------------------------------------------------------------

    def _on_progress_timeout(self, target: int) -> None:
        if self.in_view_change:
            if target == self._vc_target:
                # The view change itself stalled: escalate one further.
                self._start_view_change(target + 1)
            return
        if target != self.view:
            return
        self.event("view_timeout", epoch=target)
        self._start_view_change(self.view + 1)

    def _start_view_change(self, new_view: int) -> None:
        self.in_view_change = True
        self._vc_target = new_view
        prepared = tuple(
            (seq, qc, block)
            for seq, (qc, block) in sorted(self._prepared.items())
            if seq > self.ledger.height
        )
        proof = self._commit_qc
        msg = PBFTViewChangeMsg(
            sender=self.replica_id,
            new_view=new_view,
            last_committed=self.ledger.height,
            commit_proof=proof,
            prepared=prepared,
            signature=self.signer.digest_and_sign(
                VIEWCHANGE_DOMAIN, encode((new_view, self.ledger.height))
            ),
        )
        self.broadcast(msg)
        # Re-arm the pacemaker so a failed view change escalates further.
        assert self.pacemaker is not None
        self.pacemaker.enter_epoch(new_view, made_progress=False)

    def _verify_view_change(self, msg: PBFTViewChangeMsg) -> None:
        if not self.validators.is_valid_replica(msg.sender):
            raise VerificationError("view change from unknown replica")
        if not self.signer.verify_digest(
            msg.sender,
            VIEWCHANGE_DOMAIN,
            encode((msg.new_view, msg.last_committed)),
            msg.signature,
        ):
            raise VerificationError("bad view-change signature")
        if msg.last_committed > 0:
            proof = msg.commit_proof
            if (
                not self.verify_qc(proof)  # first: it may be None
                or proof.phase != COMMIT_PHASE
                or proof.height != msg.last_committed
            ):
                raise VerificationError("view change lacks a valid checkpoint proof")
        for seq, qc, block in msg.prepared:
            if (
                not self.verify_qc(qc)
                or qc.phase != PREPARE_PHASE
                or qc.height != seq
                or qc.block_hash != block.block_hash
                or not block.validate_payload()
            ):
                raise VerificationError("view change carries an invalid prepared entry")

    def on_view_change(self, src: int, msg: PBFTViewChangeMsg) -> None:
        if msg.new_view <= self.view:
            return  # stale: that view is already installed here
        self._verify_view_change(msg)
        bucket = self._view_changes.setdefault(msg.new_view, {})
        bucket[msg.sender] = msg
        if (
            len(bucket) >= self.validators.quorum
            and self.validators.leader_of(msg.new_view) == self.replica_id
            and msg.new_view not in self._installed_views
        ):
            chosen = tuple(bucket[s] for s in sorted(bucket))[: self.validators.quorum]
            nv = PBFTNewViewMsg(
                new_view=msg.new_view,
                view_changes=chosen,
                signature=self.signer.digest_and_sign(NEWVIEW_DOMAIN, encode(msg.new_view)),
            )
            self.broadcast(nv)

    def on_new_view(self, src: int, msg: PBFTNewViewMsg) -> None:
        if msg.new_view in self._installed_views or msg.new_view < self.view:
            return
        leader = self.validators.leader_of(msg.new_view)
        if not self.signer.verify_digest(
            leader, NEWVIEW_DOMAIN, encode(msg.new_view), msg.signature
        ):
            raise VerificationError("bad new-view signature")
        senders = {vc.sender for vc in msg.view_changes}
        if len(senders) < self.validators.quorum:
            raise VerificationError("new view lacks a view-change quorum")
        for vc in msg.view_changes:
            if vc.new_view != msg.new_view:
                raise VerificationError("new view bundles mismatched view changes")
            self._verify_view_change(vc)

        self._installed_views.add(msg.new_view)
        self.view = msg.new_view
        self.in_view_change = False
        self.mark("epoch_enter", epoch=msg.new_view)
        self.mempool.requeue_inflight()
        assert self.pacemaker is not None
        self.pacemaker.enter_epoch(self.view, made_progress=False)

        base, reproposals = self._derive_reproposals(msg.view_changes)
        if base > self.ledger.height:
            # We are behind a proven checkpoint: fetch the committed chain.
            self.fetch.want(base, providers=(src,))
        for seq, block in reproposals:
            if seq <= self.ledger.height:
                continue
            reproposal = Block(
                header=block.header, payload=block.payload
            )  # blocks are re-proposed as-is; votes re-key to the new view
            self._accept_reproposal(msg.new_view, seq, reproposal)
        if self.is_leader(self.view):
            self._propose_next()

    def _accept_reproposal(self, view: int, seq: int, block: Block) -> None:
        """Like a pre-prepare, but justified by the view-change quorum."""
        accepted = self._accepted.setdefault(view, {})
        if seq in accepted:
            return
        accepted[seq] = block
        self.store.add_block(block)
        if (view, seq) not in self._prepare_voted:
            self._prepare_voted.add((view, seq))
            vote = Vote.create(
                self.signer, self.protocol_name, view, seq, block.block_hash, phase=PREPARE_PHASE
            )
            self.broadcast(PBFTPrepareMsg(vote=vote))

    @staticmethod
    def _derive_reproposals(
        view_changes: Tuple[PBFTViewChangeMsg, ...],
    ) -> Tuple[int, List[Tuple[int, Block]]]:
        """Deterministic selection every replica computes identically.

        Returns (base, [(seq, block), ...]): ``base`` is the highest proven
        checkpoint among the view changes; re-proposals cover consecutive
        sequences above it, choosing per sequence the prepared entry with
        the highest view, and truncating at the first gap or chain break.
        """
        base = max((vc.last_committed for vc in view_changes), default=0)
        best: Dict[int, Tuple[int, Block]] = {}
        for vc in view_changes:
            for seq, qc, block in vc.prepared:
                current = best.get(seq)
                if current is None or qc.epoch > current[0]:
                    best[seq] = (qc.epoch, block)
        result: List[Tuple[int, Block]] = []
        seq = base + 1
        prev_hash: Optional[Digest] = None
        while seq in best:
            block = best[seq][1]
            if prev_hash is not None and block.parent != prev_hash:
                break  # chain break: merely-prepared tail, safe to drop
            result.append((seq, block))
            prev_hash = block.block_hash
            seq += 1
        return base, result

    def fetch_tip(self) -> Optional[Certificate]:
        return self._commit_qc

    def _fetched(self, justify: Certificate, chain: List[BlockHeader]) -> None:
        """Commit the fetched chain (all of it or, lacking a payload, none),
        then resume the pre-prepares that waited on it."""
        try:
            self.commit_through(justify.block_hash)
        except BlockStoreError:
            return
        self._commit_qc = justify
        self._drain_out_of_order(self.view)
        self._send_commit_votes()
        self._execute_ready()
