"""AlterBFT — hybrid-synchronous Byzantine fault-tolerant consensus.

The protocol (reconstructed from the paper's model and claims; DESIGN.md
documents the reconstruction) tolerates f Byzantine replicas out of
n = 2f + 1 and applies its synchrony bound Δ **only to small messages**:

* **headers** (proposal metadata committing to the payload), **votes**,
  **blames**, **statuses** — all O(κ) bytes — are assumed Δ-timely;
* **payloads** (the transactions) are only *eventually* timely.

Steady state in epoch ``e`` with leader ``L``:

1. ``L`` broadcasts a signed header for block ``B_k`` (small) and the
   payload (large) as separate messages; the header carries a quorum
   certificate for its parent.
2. Every replica relays the first header it sees per (epoch, height) to
   every replica but itself and the proposer, so conflicting
   leader-signed proposals reach all honest replicas at most Δ after any
   honest replica saw either one.
3. A replica votes (broadcast, small) once it holds header *and* matching
   payload and the header passes the chain rules below, then starts a
   **2Δ commit window**.
4. f + 1 votes certify the block.  When a replica's window elapses with
   no equivocation for epoch ``e`` and no blame certificate for ``e``,
   the certified block and its ancestors commit.
5. No progress before the (adaptive) epoch timeout, a withheld payload,
   or an equivocation proof ⇒ blame (small).  f + 1 blames form a blame
   certificate: replicas quit the epoch, wait Δ for in-flight votes,
   report status (highest QC) to the next leader, and the next leader
   proposes extending the highest certificate it knows.

Safety argument (Sync HotStuff-style, adapted to the header/payload
split).  *Equivocation* is any pair of same-epoch leader-signed headers
that cannot lie on one chain: same height/different hash, two distinct
*anchors* (headers justified by pre-epoch certificates), or a broken
parent link at adjacent heights.  Honest replicas vote along a single
per-epoch chain whose anchor's justify must rank at least their
certificate knowledge at epoch entry.  If an honest replica commits
``B_k`` at time ``t``, it voted and relayed the header at ``t − 2Δ``, so
any honest vote for a conflicting epoch-``e`` block either happened
before ``t − Δ`` (its relayed header reaches the committer inside the
window — commit aborted) or after the committer's relay arrived (the
voter sees the conflict and refuses to vote).  Hence conflicting
epoch-``e`` certificates cannot exist once someone commits, and the
status exchange (votes are broadcast; quitting waits Δ) carries the
committed block's certificate into every later epoch's anchor rule.

Latency is ``payload dissemination + vote + 2Δ_small``, while a classical
synchronous protocol pays ``2Δ_big`` with Δ_big bounding the *largest*
message — the up-to-15× gap the paper reports.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..consensus.pacemaker import Pacemaker
from ..consensus.replica import BaseReplica
from ..consensus.validators import ValidatorSet
from ..config import ProtocolConfig
from ..crypto.hashing import Digest
from ..crypto.signatures import Signer
from ..errors import BlockStoreError, ConfigError, VerificationError
from ..mempool.mempool import Mempool
from ..recovery.wal import WalEpochRecord
from ..types.block import Block, BlockHeader, BlockPayload, make_block
from ..types.certificates import BLAME, VOTE, Blame, Certificate, Vote, genesis_qc
from ..types.messages import (
    BlameCertMsg,
    BlameMsg,
    EquivocationProofMsg,
    PayloadMsg,
    PayloadRequestMsg,
    PayloadResponseMsg,
    ProposalHeaderMsg,
    StatusMsg,
    VoteMsg,
)

#: Replica participation state within the current epoch.
ACTIVE = "active"
QUITTING = "quitting"
#: Post-restart state: catching up via repro.recovery; the replica
#: serves data but neither votes, proposes, nor changes epochs until
#: catchup re-enters it into steady state.
RECOVERING = "recovering"


class AlterBFTReplica(BaseReplica):
    """One AlterBFT replica (see module docstring for the protocol)."""

    protocol_name = "alterbft"

    #: Multiplier on ``config.delta`` in force.  A synchrony guard writes
    #: it at its epoch-atomic install; ``__init__`` deliberately does not,
    #: so the bound a replica crashed with is the bound it restarts with.
    delta_scale: float = 1.0

    HANDLERS = {
        ProposalHeaderMsg: "on_proposal_header",
        PayloadMsg: "on_payload",
        VoteMsg: "on_vote",
        BlameMsg: "on_blame",
        BlameCertMsg: "on_blame_cert",
        EquivocationProofMsg: "on_equivocation_proof",
        StatusMsg: "on_status",
        PayloadRequestMsg: "on_payload_request",
        PayloadResponseMsg: "on_payload_response",
    }

    FEATURES = ("pipeline", "recovery", "guard", "dissem")

    def __init__(
        self,
        replica_id: int,
        validators: ValidatorSet,
        config: ProtocolConfig,
        signer: Signer,
        mempool: Optional[Mempool] = None,
    ) -> None:
        super().__init__(replica_id, validators, config, signer, mempool)
        self.epoch = 1
        self.state = ACTIVE
        self.high_qc: Certificate = genesis_qc(
            self.protocol_name, self.store.genesis.block_hash
        )
        self.pacemaker: Optional[Pacemaker] = None
        # Certificate knowledge at entry into the current epoch — the
        # anchor rule compares against this, not the live high_qc.
        self._entry_rank: Tuple[int, int] = self.high_qc.rank
        # Per-epoch leader-signed proposals, for conflict detection:
        # epoch → height → hash (the proposal is in _header_msgs).
        self._epoch_headers: Dict[int, Dict[int, Digest]] = {}
        # epoch → highest recorded proposal height; lets the voting
        # catch-up scan bail out in O(1) in the common gap-free case.
        self._epoch_max_height: Dict[int, int] = {}
        # epoch → the anchor proposal (justify.epoch < epoch).
        self._epoch_anchor: Dict[int, ProposalHeaderMsg] = {}
        self._equivocated: Set[int] = set()
        # Voting: epoch → (height, hash) of the last block voted for.
        self._last_voted: Dict[int, Tuple[int, Digest]] = {}
        # Commit windows that elapsed cleanly, awaiting QC/payloads.
        self._window_clean: Set[Tuple[int, Digest]] = set()
        # Epoch change.
        self._blamed_epochs: Set[int] = set()
        # Blame certificates received while RECOVERING, replayed on rejoin.
        self._pending_blame_certs: List[Certificate] = []
        # Processed blame certificates by epoch: each epoch's is handled
        # once, and kept to unstick stragglers that blame an epoch the
        # cluster already abandoned.
        self._blame_cert_log: Dict[int, Certificate] = {}
        self._proposed_in_epoch = False
        # Leader pipeline: (height, hash) of proposals streamed but not yet
        # certified, oldest first, at most ``config.pipeline_depth`` long.
        # Depth 1 degenerates to the classic one-slot "awaiting QC" leader.
        self._inflight: List[Tuple[int, Digest]] = []
        # Payload repair.
        self._payload_requested: Set[Digest] = set()
        # Commit windows parked until a specific payload/header arrives —
        # avoids rescanning the chain on every event while data is absent.
        self._parked_on_payload: Dict[Digest, Set[Tuple[int, Digest]]] = {}
        self._parked_on_header: Dict[Digest, Set[Tuple[int, Digest]]] = {}
        # Every verified proposal message by block hash (conflict detection).
        self._header_msgs: Dict[Digest, ProposalHeaderMsg] = {}
        # Buffered proposals from epochs we have not entered yet.
        self._future_headers: List[Tuple[int, ProposalHeaderMsg]] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def epoch_changes(self) -> int:
        return self.epoch - 1

    def on_start(self) -> None:
        # The chained leader is this class's own; the rest are subsystems.
        missing = [s for s in self.config.features() if s not in {*self.subsystems, "pipeline"}]
        if missing:
            # A flag nobody acted on would run the plain protocol and
            # report the flagged one.
            raise ConfigError(
                f"{self.protocol_name}: config asks for {missing} but no such subsystem "
                "is attached (build replicas through runner.registry.attach_subsystems)"
            )
        self.pacemaker = self._new_pacemaker()
        self.pacemaker.enter_epoch(self.epoch, made_progress=True)
        self._fire("on_start")
        if self.is_leader(self.epoch):
            self._propose_block()

    def _new_pacemaker(self) -> Pacemaker:
        assert self.ctx is not None
        return Pacemaker(
            self.ctx,
            base_timeout=self.config.epoch_timeout,
            growth=self.config.epoch_timeout_growth,
            on_timeout=self._on_epoch_timeout,
            timeout_scale=lambda: self.delta_scale,
        )

    def _delta(self) -> float:
        """The synchrony bound in force: the configured Δ, re-calibrated
        by whatever multiple a synchrony guard has installed."""
        return self.config.delta * self.delta_scale

    def _timer_pacemaker(self, payload: Any) -> None:
        assert self.pacemaker is not None
        self.pacemaker.handle_timer(payload)

    def _timer_idle_propose(self, epoch: Any) -> None:
        self._idle_timer_armed = False
        if epoch == self.epoch and self._pipeline_room():
            self._propose_block(force=True)

    # ------------------------------------------------------------------
    # Proposing (leader)
    # ------------------------------------------------------------------

    def _pipeline_room(self) -> bool:
        """May the leader stream another proposal right now?

        The first proposal of a window is always allowed.  Beyond that,
        the in-flight window is capped at ``pipeline_depth``, and blocks
        may only be pipelined once this epoch owns a certificate
        (``high_qc.epoch == epoch``): a deeper header must justify with a
        same-epoch certificate, because a second header justified by a
        pre-epoch certificate would be a second *anchor* — indictable
        equivocation under the conflict rules.
        """
        if not self._inflight:
            return True
        if len(self._inflight) >= self.config.pipeline_depth:
            return False
        return self.high_qc.epoch == self.epoch

    def _propose_block(self, force: bool = False) -> None:
        """Fill the in-flight pipeline with proposals extending the tip.

        At depth 1 this emits at most one proposal and then waits for its
        certificate (the classic serial leader).  At depth d the leader
        keeps streaming until d proposals are certified-or-awaiting, each
        with its own 2Δ commit window running concurrently.
        """
        if self.state != ACTIVE or not self.is_leader(self.epoch):
            return
        while self._pipeline_room():
            if not force and self.defer_if_idle(self.epoch):
                return
            self._emit_proposal()
            force = False

    def pipeline_tip(self) -> Tuple[int, Digest]:
        """(height, hash) the next proposal extends: the last in-flight
        proposal, else the highest certified block."""
        if self._inflight:
            return self._inflight[-1]
        return self.high_qc.height, self.high_qc.block_hash

    def _emit_proposal(self) -> None:
        """Build and disseminate one block extending the pipeline tip."""
        justify = self.high_qc
        parent_height, parent_hash = self.pipeline_tip()
        batch = self.mempool.take_batch(self.config.max_batch, self.config.max_payload_bytes)
        block = make_block(
            epoch=self.epoch,
            height=parent_height + 1,
            parent=parent_hash,
            transactions=batch,
            proposer=self.replica_id,
        )
        header_msg = ProposalHeaderMsg(
            header=block.header,
            signature=self.sign_proposal(block.block_hash),
            justify=justify,
        )
        self._inflight.append((block.height, block.block_hash))
        self._proposed_in_epoch = True
        self.event(
            "propose", block.block_hash, epoch=self.epoch, height=block.height,
            txs=len(batch), inflight=len(self._inflight),
        )
        # Header first (small, Δ-timely), payload second (large).
        self.broadcast(header_msg)
        self.send_payload(block)

    def send_payload(self, block: Block) -> None:
        """Ship a proposed block's payload: one blob per replica.  A
        dissemination subsystem replaces this with its own sender."""
        self.broadcast(
            PayloadMsg(
                epoch=block.epoch,
                height=block.height,
                block_hash=block.block_hash,
                payload=block.payload,
            )
        )

    # ------------------------------------------------------------------
    # Header handling: verification, conflict detection, relaying
    # ------------------------------------------------------------------

    def _verify_header_msg(self, msg: ProposalHeaderMsg) -> None:
        """Structural and cryptographic checks; raises VerificationError.

        A passing verification is memoized on the message object, keyed by
        the identity of the verification context (scheme, registry,
        validator set — one of each is shared by every replica of a
        cluster), so a header relayed to many replicas is checked once.
        Only success is cached; a failing message is re-checked on every
        receipt, and a message with different context is never served
        from the memo.
        """
        memo = getattr(msg, "_header_verify_memo", None)
        if (
            memo is not None
            and memo[0] is self.signer.scheme
            and memo[1] is self.signer.registry
            and memo[2] is self.validators
        ):
            return
        self._verify_header_msg_uncached(msg)
        object.__setattr__(
            msg,
            "_header_verify_memo",
            (self.signer.scheme, self.signer.registry, self.validators),
        )

    def _verify_header_msg_uncached(self, msg: ProposalHeaderMsg) -> None:
        header = msg.header
        if header.epoch < 1 or not self.validators.is_valid_replica(header.proposer):
            raise VerificationError("malformed header epoch/proposer")
        if header.proposer != self.validators.leader_of(header.epoch):
            raise VerificationError(f"proposer {header.proposer} is not the epoch leader")
        if not self.verify_proposal_signature(header.proposer, header.block_hash, msg.signature):
            raise VerificationError("bad proposer signature on header")
        if not self.verify_qc(msg.justify):
            raise VerificationError("header carries an invalid justify certificate")
        gap = header.height - msg.justify.height
        if gap == 1:
            if msg.justify.block_hash != header.parent:
                raise VerificationError("header does not extend its justify certificate")
        elif not (
            self.config.pipeline_depth > 1
            and 1 < gap <= self.config.pipeline_depth
            and msg.justify.epoch == header.epoch
        ):
            # Pipelined headers ride above their justify by up to the
            # configured depth, but must justify with a *same-epoch*
            # certificate (a pre-epoch justify would be a second anchor).
            # The parent link of such a header is checked against the
            # recorded epoch chain by the conflict/vote rules instead.
            raise VerificationError("header does not extend its justify certificate")
        if msg.justify.epoch > header.epoch:
            raise VerificationError("justify certificate from a future epoch")

    def on_proposal_header(self, src: int, msg: ProposalHeaderMsg) -> None:
        self._verify_header_msg(msg)
        if msg.header.epoch > self.epoch:
            # The blame certificate opening that epoch has not reached us
            # yet; buffer and replay after catching up.
            self._future_headers.append((msg.header.epoch, msg))
            return
        self._accept_header(msg)

    def _accept_header(self, msg: ProposalHeaderMsg) -> None:
        header = msg.header
        # A relayed copy of a recorded header is a no-op.  A conflict is
        # found when the second *distinct* header arrives, so a copy of one
        # already recorded can neither reveal a conflict nor enable a vote.
        # Callers verify before they get here: a tampered relay is refused.
        if self._epoch_headers.get(header.epoch, {}).get(header.height) == header.block_hash:
            return
        # Store every leader-signed header regardless of conflicts: the
        # block tree is content-addressed and must be able to serve the
        # ancestry of whichever branch survives the epoch change.
        first_time = self.store.add_header(header)
        if first_time:
            self.mark(
                "header_deliver", header.block_hash, epoch=header.epoch, height=header.height
            )
            self._header_msgs[header.block_hash] = msg
            self._update_high_qc(msg.justify)
            self._unpark(self._parked_on_header, header.block_hash)
            # Arm payload repair in case the leader withholds the payload.
            assert self.ctx is not None
            self.ctx.set_timer(
                2 * self._delta() + 0.25 * self.config.epoch_timeout,
                "payload_fetch",
                header.block_hash,
            )
            self._fire("on_header", header)
        conflict = self._find_conflict(msg)
        if conflict is not None:
            self._report_equivocation(conflict, msg)
            return
        heights = self._epoch_headers.setdefault(header.epoch, {})
        if header.height not in heights:
            heights[header.height] = header.block_hash
            self._header_msgs.setdefault(header.block_hash, msg)  # catchup stored the header
            if header.height > self._epoch_max_height.get(header.epoch, -1):
                self._epoch_max_height[header.epoch] = header.height
            if msg.justify.epoch < header.epoch:
                self._epoch_anchor.setdefault(header.epoch, msg)
        if first_time and self.config.relay_headers:
            # Relay so conflicts become visible to all honest replicas
            # within Δ of the first honest receipt.
            self._relay_proposal(msg)
        self._maybe_vote_chain(header.epoch)

    def _relay_proposal(self, msg: ProposalHeaderMsg) -> None:
        """Pass a first-seen proposal on, as one offer, to every replica but
        this one and its proposer — the two that already hold it — so a
        proposer never relays its own.  Two conflicting headers still meet
        at every honest replica: each honest receiver passes its own on."""
        proposer = msg.header.proposer
        if proposer != self.replica_id:
            others = tuple(
                r for r in range(self.validators.n) if r != self.replica_id and r != proposer
            )
            self.send(others, self._relay_form(msg))

    def _relay_form(self, msg: ProposalHeaderMsg) -> object:
        """What a relay carries: the header (overridden by Sync HotStuff to
        relay the full block, which is what its model requires)."""
        return msg

    def _find_conflict(self, msg: ProposalHeaderMsg) -> Optional[ProposalHeaderMsg]:
        """Return a recorded proposal that conflicts with ``msg``, if any.

        Conflicts (same epoch, both leader-signed):
          1. same height, different hash;
          2. two distinct anchors (justify from an earlier epoch);
          3. broken parent link at adjacent heights.
        (A proposal a checkpoint pruned from ``_header_msgs`` is settled.)
        """
        header = msg.header
        epoch, height = header.epoch, header.height
        heights = self._epoch_headers.get(epoch, {})
        recorded = self._header_msgs.get(heights.get(height))
        if recorded is not None and recorded.header.block_hash != header.block_hash:
            return recorded
        if msg.justify.epoch < epoch:
            anchor = self._epoch_anchor.get(epoch)
            if anchor is not None and anchor.header.block_hash != header.block_hash:
                return anchor
        else:  # justify.epoch == epoch: parent must be the epoch chain
            below = self._header_msgs.get(heights.get(height - 1))
            if below is not None and below.header.block_hash != header.parent:
                return below
        above = self._header_msgs.get(heights.get(height + 1))
        if (
            above is not None
            and above.justify.epoch == epoch
            and above.header.parent != header.block_hash
        ):
            return above
        return None

    def _report_equivocation(self, first: ProposalHeaderMsg, second: ProposalHeaderMsg) -> None:
        epoch = first.header.epoch
        if epoch in self._equivocated:
            return
        self._equivocated.add(epoch)
        self.event("equivocation_detected", epoch=epoch, leader=first.header.proposer)
        self.broadcast(EquivocationProofMsg(first=first, second=second), include_self=False)
        self._send_blame(epoch)

    def on_equivocation_proof(self, src: int, msg: EquivocationProofMsg) -> None:
        m1, m2 = msg.first, msg.second
        h1, h2 = m1.header, m2.header
        if h1.epoch != h2.epoch:
            raise VerificationError("equivocation proof spans epochs")
        self._verify_header_msg(m1)
        self._verify_header_msg(m2)
        if not self._proposals_conflict(m1, m2):
            raise VerificationError("equivocation proof headers do not conflict")
        if h1.epoch in self._equivocated:
            return
        self._equivocated.add(h1.epoch)
        self.event("equivocation_learned", epoch=h1.epoch)
        self.broadcast(msg, include_self=False)
        self._send_blame(h1.epoch)

    @staticmethod
    def _proposals_conflict(m1: ProposalHeaderMsg, m2: ProposalHeaderMsg) -> bool:
        h1, h2 = m1.header, m2.header
        if h1.block_hash == h2.block_hash:
            return False
        if h1.height == h2.height:
            return True
        if m1.justify.epoch < h1.epoch and m2.justify.epoch < h2.epoch:
            return True  # two distinct anchors
        low, high = (m1, m2) if h1.height < h2.height else (m2, m1)
        return (
            high.header.height == low.header.height + 1
            and high.justify.epoch == high.header.epoch
            and high.header.parent != low.header.block_hash
        )

    # ------------------------------------------------------------------
    # Payload handling
    # ------------------------------------------------------------------

    def on_payload(self, src: int, msg: PayloadMsg) -> None:
        self._store_payload(msg.block_hash, msg.payload)

    def _store_payload(self, block_hash: Digest, payload: BlockPayload) -> None:
        header = self.store.get_header(block_hash)
        if header is not None and not self._payload_matches(header, payload):
            raise VerificationError("payload does not match header commitment")
        if not self.store.add_payload(block_hash, payload):
            return
        self.mark("payload_deliver", block_hash)
        if header is not None:
            self._maybe_vote_chain(header.epoch)
        self._unpark(self._parked_on_payload, block_hash)
        self._try_commit_ready()

    @staticmethod
    def _payload_matches(header: BlockHeader, payload: BlockPayload) -> bool:
        return (
            payload.merkle_root == header.payload_root and len(payload) == header.payload_count
        )

    def _timer_payload_fetch(self, block_hash: Digest) -> None:
        """Repair path: ask peers for a payload the leader never delivered."""
        if self.store.has_payload(block_hash) or block_hash in self._payload_requested:
            return
        header = self.store.get_header(block_hash)
        if header is not None:
            self.event("payload_fetch", height=header.height)
            self._request_payload(header)

    def _request_payload(self, header: BlockHeader) -> None:
        self._payload_requested.add(header.block_hash)
        msg = PayloadRequestMsg(block_hash=header.block_hash, height=header.height)
        self.broadcast(msg, include_self=False)

    def on_payload_request(self, src: int, msg: PayloadRequestMsg) -> None:
        """Serve from the store, or from the ledger below the store's floor
        (the fetch's ledger lookup, by height and hash)."""
        if self.store.has_payload(msg.block_hash):
            payload = self.store.payload(msg.block_hash)
        elif self.ledger.committed_hash_at(msg.height) == msg.block_hash:
            payload = self.ledger.block_at(msg.height).payload
        else:
            return
        self.send(src, PayloadResponseMsg(block_hash=msg.block_hash, payload=payload))

    def on_payload_response(self, src: int, msg: PayloadResponseMsg) -> None:
        if self.store.get_header(msg.block_hash) is None:
            return
        self._store_payload(msg.block_hash, msg.payload)

    # ------------------------------------------------------------------
    # Voting and the 2Δ commit window
    # ------------------------------------------------------------------

    def _maybe_vote_chain(self, epoch: int) -> None:
        """Vote for every consecutive eligible height (handles reordering)."""
        while self._maybe_vote_once(epoch):
            pass

    def _maybe_vote_once(self, epoch: int) -> bool:
        if self.crashed:  # halted on a fork
            return False
        if self.state != ACTIVE or epoch != self.epoch or epoch in self._equivocated:
            return False
        last = self._last_voted.get(epoch)
        candidate = self._next_votable(epoch, last)
        if candidate is None:
            return False
        header = candidate.header
        if self.config.vote_requires_payload:
            if not self.store.has_payload(header.block_hash):
                return False
            if not self._payload_matches(header, self.store.payload(header.block_hash)):
                return False
        self._last_voted[epoch] = (header.height, header.block_hash)
        vote = Vote.create(
            self.signer, self.protocol_name, header.epoch, header.height, header.block_hash
        )
        # Journal before broadcast: a restart replays this and can
        # never emit a second vote at (or below) the same height.
        self._fire("journal", vote)
        self.event("vote", header.block_hash, epoch=header.epoch, height=header.height)
        self.broadcast(VoteMsg(vote=vote))
        # Open the 2Δ equivocation-detection window.
        assert self.ctx is not None
        self.ctx.set_timer(2 * self._delta(), "commit_wait", (header.epoch, header.block_hash))
        return True

    def _next_votable(
        self, epoch: int, last: Optional[Tuple[int, Digest]]
    ) -> Optional[ProposalHeaderMsg]:
        """The lowest recorded proposal this replica may vote for next."""
        heights = self._epoch_headers.get(epoch)
        if not heights:
            return None
        if last is None:
            # Anchor rule: the first vote of the epoch must extend a
            # certificate at least as high as anything known at entry —
            # or join the epoch's already-certified chain (an epoch-e
            # justify embeds an honest anchor vote).
            for height in sorted(heights):
                msg = self._header_msgs.get(heights[height])
                if msg is not None and (
                    msg.justify.epoch == epoch or msg.justify.rank >= self._entry_rank
                ):
                    return msg
            return None
        last_height, last_hash = last
        msg = self._header_msgs.get(heights.get(last_height + 1))
        if msg is not None and msg.header.parent == last_hash:
            return msg
        if self._epoch_max_height.get(epoch, -1) <= last_height + 1:
            return None  # nothing recorded past the gap; skip the scan
        # Catch-up: the leader moved on without our vote; we may vote for
        # any later proposal whose chain passes through our last vote.
        for height in sorted(h for h in heights if h > last_height + 1):
            candidate = self._header_msgs.get(heights[height])
            if candidate is not None and self.store.extends(candidate.header.parent, last_hash):
                return candidate
        return None

    def on_vote(self, src: int, msg: VoteMsg) -> None:
        qc = self.record_vote(src, msg.vote)
        if qc is None:
            return
        self.mark("certify", qc.block_hash, epoch=qc.epoch, height=qc.height)
        self._update_high_qc(qc)
        if self.pacemaker is not None and qc.epoch == self.epoch:
            self.pacemaker.record_progress()
        self._try_commit_ready()
        # Leader pipeline: certifying an in-flight proposal frees its slot
        # (and every slot below it — a certificate at height h embeds
        # honest votes for the whole chain through h) → keep streaming.
        if (
            self.state == ACTIVE
            and self.is_leader(self.epoch)
            and any(block_hash == qc.block_hash for _, block_hash in self._inflight)
        ):
            self._inflight = [
                (height, block_hash)
                for height, block_hash in self._inflight
                if height > qc.height
            ]
            self._propose_block()

    def _update_high_qc(self, qc: Certificate) -> None:
        if qc.rank > self.high_qc.rank:
            self.high_qc = qc
            self._fire("journal", qc)

    def _timer_commit_wait(self, payload: Tuple[int, Digest]) -> None:
        epoch, block_hash = payload
        if epoch in self._equivocated or epoch in self._blame_cert_log:
            return
        if self.epoch == epoch and self.state != ACTIVE:
            return
        self.mark("window_clean", block_hash, epoch=epoch)
        self._window_clean.add((epoch, block_hash))
        self._try_commit(epoch, block_hash)

    def _try_commit_ready(self) -> None:
        self._try_commit_each(self._window_clean)

    def _try_commit_each(self, windows: Set[Tuple[int, Digest]]) -> None:
        """Try ``windows`` lowest block first, so ancestors commit first."""
        for epoch, block_hash in sorted(
            windows,
            key=lambda w: self.store.header(w[1]).height if self.store.has_header(w[1]) else 0,
        ):
            self._try_commit(epoch, block_hash)

    def _try_commit(self, epoch: int, block_hash: Digest) -> None:
        """Commit ``block_hash`` and ancestors if certified and available."""
        if (epoch, block_hash) not in self._window_clean:
            return
        if epoch in self._blame_cert_log:
            # Quit-epoch rule: pending windows of an abandoned epoch are
            # cancelled; the block still commits later as an ancestor if
            # its chain survives the epoch change.
            self._window_clean.discard((epoch, block_hash))
            return
        header = self.store.get_header(block_hash)
        if header is None:
            return
        if self.ledger.is_committed(header):  # as an ancestor; its QC may be gone
            self._window_clean.discard((epoch, block_hash))
            return
        if self.qc_for(0, epoch, header.height, block_hash) is None:
            return
        head_hash = self.ledger.head.block_hash
        if header.height <= self.ledger.height:
            # A sibling chain's block below our committed height can never
            # exist for an honest run; an already-superseded window is
            # simply dropped.
            self._window_clean.discard((epoch, block_hash))
            return
        try:
            missing = self.store.missing_payloads(block_hash, head_hash)
        except BlockStoreError:
            status, lowest = self._ancestry_status(block_hash)
            if status == "gap":
                # Park the window on the first missing ancestor and fetch
                # the certified chain above our committed head.
                self._window_clean.discard((epoch, block_hash))
                self._parked_on_header.setdefault(lowest.parent, set()).add((epoch, block_hash))
                self.fetch.want(header.height, block_hash)
            elif status == "fork":
                self._halt_on_fork(epoch, header.height)
                self._window_clean.clear()  # no later window in this pass commits
            return
        if missing:
            # Park the window on its missing payloads; it wakes when they
            # arrive (or never, if a Byzantine leader withheld them and no
            # honest replica has a copy — the blame path handles liveness).
            self._window_clean.discard((epoch, block_hash))
            for needed in missing:
                self._parked_on_payload.setdefault(needed, set()).add((epoch, block_hash))
                if needed not in self._payload_requested:
                    self._request_payload(self.store.header(needed))
            return
        self.commit_through(block_hash)
        self._window_clean.discard((epoch, block_hash))

    def _unpark(self, parked: Dict[Digest, Set[Tuple[int, Digest]]], key: Digest) -> None:
        """Re-activate commit windows waiting on ``key`` and retry them."""
        windows = parked.pop(key, None)
        if not windows:
            return
        self._window_clean.update(windows)
        self._try_commit_each(windows)

    def fetch_tip(self) -> Certificate:
        return self.high_qc

    def _fetched(self, justify: Certificate, chain: List[BlockHeader]) -> None:
        """Certified is not committed: raise ``high_qc``, retry the windows."""
        self._update_high_qc(justify)
        for header in chain:
            self._unpark(self._parked_on_header, header.block_hash)
        self._try_commit_ready()

    def _fetched_off_head(self, justify: Certificate, chain: List[BlockHeader]) -> None:
        """A certified chain off the head that carries the missing ancestry
        of a window parked to commit (certified, window clean) forks that
        commit-grade block off the committed chain: the fork step.  Any
        other such chain is refused, as in every protocol."""
        if not any(header.block_hash in self._parked_on_header for header in chain):
            super()._fetched_off_head(justify, chain)
        self._halt_on_fork(justify.epoch, justify.height)

    def _halt_on_fork(self, epoch: int, height: int) -> None:
        """The one fork step: a certified block at ``height`` conflicts
        with the committed chain.  Unreachable in a correct protocol run,
        reachable in the E10 ablations.  Report it and halt entirely — any
        further participation could only deepen the fork; the ledger stays
        as evidence for the harness's cross-replica safety checker."""
        self.event("fork_detected", epoch=epoch, height=height)
        self.crashed = True

    def _ancestry_status(self, block_hash: Digest) -> Tuple[str, BlockHeader]:
        """Whether a block's chain reaches the committed head ("ok"), misses
        headers ("gap") or forks, with the lowest header the walk reached —
        a fork also when that header sits just above the head on another
        parent."""
        target_height = self.ledger.height
        head_hash = self.ledger.head.block_hash
        for header in self.store.walk_ancestors(block_hash):
            if header.height == target_height:
                return ("ok" if header.block_hash == head_hash else "fork"), header
            if header.height < target_height:
                return "fork", header
        off_head = header.height == target_height + 1 and header.parent != head_hash
        return ("fork" if off_head else "gap"), header

    # ------------------------------------------------------------------
    # Blames and epoch change
    # ------------------------------------------------------------------

    def _on_epoch_timeout(self, epoch: int) -> None:
        if epoch == self.epoch and self.state == ACTIVE:
            self.event("epoch_timeout", epoch=epoch)
            self._send_blame(epoch)

    def _send_blame(self, epoch: int) -> None:
        if epoch in self._blamed_epochs or epoch < self.epoch:
            return
        self._blamed_epochs.add(epoch)
        self.mark("blame", epoch=epoch)
        blame = Blame.create(self.signer, self.protocol_name, epoch)
        self.broadcast(BlameMsg(blame=blame))

    def on_blame(self, src: int, msg: BlameMsg) -> None:
        blame = msg.blame
        self.blames.check(src, blame)
        # A blame for an epoch this replica already abandoned marks the
        # sender as a straggler (e.g. a rejoiner that missed the change
        # while down).  Re-offer the stored certificate — nobody ever
        # re-broadcasts an old one otherwise, and the straggler cannot
        # leave the dead epoch without it.
        if blame.epoch < self.epoch:
            stored = self._blame_cert_log.get(blame.epoch)
            if stored is not None:
                self.send(src, BlameCertMsg(cert=stored))
            return
        cert = self.blames.add(blame)
        if cert is not None:
            self._handle_blame_cert(cert)

    def on_blame_cert(self, src: int, msg: BlameCertMsg) -> None:
        if not BLAME.is_certificate(msg.cert):
            raise VerificationError("not a well-formed blame certificate")
        if msg.cert.epoch in self._blame_cert_log:
            return
        if not self.blames.certifies(msg.cert):
            raise VerificationError("invalid blame certificate")
        self._handle_blame_cert(msg.cert)

    def _handle_blame_cert(self, cert: Certificate) -> None:
        if cert.epoch in self._blame_cert_log or cert.epoch < self.epoch:
            return
        if self.state == RECOVERING:
            # Epoch changes are suspended during catchup, but the
            # certificate must not be lost: if the change races the
            # rejoin, the status responses may still report the old
            # epoch, and nobody re-broadcasts an old blame certificate —
            # dropping it would strand the joiner there.  Buffer it and
            # replay once catchup finishes.
            self._pending_blame_certs.append(cert)
            return
        self._blame_cert_log[cert.epoch] = cert
        self.event("epoch_change", epoch=cert.epoch)
        # Gossip the certificate so every honest replica quits within Δ.
        self.broadcast(BlameCertMsg(cert=cert), include_self=False)
        self.state = QUITTING
        if self.pacemaker is not None:
            self.pacemaker.stop()
        # Quit wait: Δ for in-flight epoch votes to land everywhere.
        assert self.ctx is not None
        self.ctx.set_timer(self._delta(), "enter_epoch", cert.epoch + 1)

    def _timer_enter_epoch(self, new_epoch: int) -> None:
        if new_epoch <= self.epoch or self.state == RECOVERING:
            return
        self.epoch = new_epoch
        self.state = ACTIVE
        self.mark("epoch_enter", epoch=new_epoch)
        self._begin_epoch()
        self._proposed_in_epoch = False
        # Resolve the in-flight window: the certified prefix survives via
        # high_qc/status exchange; the uncertified suffix is abandoned and
        # its transactions re-queued for the next leader to re-propose.
        self.mempool.requeue_inflight()
        assert self.pacemaker is not None
        self.pacemaker.enter_epoch(new_epoch, made_progress=False)
        leader = self.validators.leader_of(new_epoch)
        status = StatusMsg(sender=self.replica_id, new_epoch=new_epoch, high_qc=self.high_qc)
        if leader == self.replica_id:
            # Give peers Δ to report their certificates before proposing.
            assert self.ctx is not None
            self.ctx.set_timer(self._delta(), "new_epoch_propose", new_epoch)
        else:
            self.send(leader, status)
        self._replay_future_headers()

    def _replay_future_headers(self) -> None:
        """Accept the buffered proposals whose epoch has now been entered."""
        pending, self._future_headers = self._future_headers, []
        for epoch, msg in pending:
            if epoch <= self.epoch:
                self._accept_header(msg)
            else:
                self._future_headers.append((epoch, msg))

    def _begin_epoch(self) -> None:
        """What entering ``self.epoch`` normally and by rejoining share."""
        # Atomic Δ switch: a certified adjustment takes effect here,
        # before this epoch's timers (pacemaker, leader wait) are set.
        self._fire("on_epoch_enter", self.epoch)
        self._entry_rank = self.high_qc.rank
        self._fire(
            "journal",
            WalEpochRecord(
                epoch=self.epoch,
                rank_epoch=self._entry_rank[0],
                rank_height=self._entry_rank[1],
            ),
        )
        self._inflight.clear()

    def on_status(self, src: int, msg: StatusMsg) -> None:
        if not self.verify_qc(msg.high_qc):
            raise VerificationError("status carries an invalid certificate")
        self._update_high_qc(msg.high_qc)

    def _timer_new_epoch_propose(self, epoch: int) -> None:
        if epoch != self.epoch or self.state != ACTIVE or not self.is_leader(epoch):
            return
        if self._proposed_in_epoch:
            return
        self._propose_block()

    # ------------------------------------------------------------------
    # Checkpoint pruning and WAL restart, driven by a recovery subsystem
    # ------------------------------------------------------------------

    def drop_block_indexes(self, removed: List[Digest]) -> None:
        """Forget per-block indexes for checkpoint-pruned blocks."""
        removed_set = set(removed)
        for block_hash in removed_set:
            self._header_msgs.pop(block_hash, None)
            self._payload_requested.discard(block_hash)
        self._window_clean = {w for w in self._window_clean if w[1] not in removed_set}
        self._fire("drop_blocks", removed_set)

    def restart_from_wal(self, records: List[object]) -> None:
        """Reconstruct volatile state after a crash from the journalled
        ``records``; the caller then runs catchup and ends it with
        :meth:`_finish_catchup`.

        Re-runs ``__init__`` on the same object (the cluster and network
        keep references to the replica and its bound methods), restores
        what outlives a crash and replays the journal.  Stale pre-crash
        timers may still fire afterwards; each of them re-checks state
        and no-ops harmlessly on the fresh instance.
        """
        ctx = self.ctx
        listeners = list(self.ledger._listeners)
        subsystems = list(self.subsystems.values())
        # obs, delta_scale, a replaced send_payload and any
        # instrumentation wrappers are instance attributes __init__ does
        # not touch; they persist.  The dispatch tables it rebuilds do not.
        self.__init__(self.replica_id, self.validators, self.config, self.signer, Mempool())
        self.ctx = ctx
        self.mempool.wakeup = self._on_mempool_wakeup
        for listener in listeners:
            self.ledger.add_listener(listener)
        for subsystem in subsystems:
            self.attach(subsystem)
        self.crashed = False
        self.pacemaker = self._new_pacemaker()
        self.state = RECOVERING
        self._replay_wal(records)
        self.event("recovery_restart", epoch=self.epoch, wal_records=len(records))

    def _replay_wal(self, records: List[object]) -> None:
        """Restore epoch, entry rank, high_qc, and vote floor from the WAL."""
        max_epoch = 1
        entry_rank: Optional[Tuple[int, int]] = None
        for record in records:
            if isinstance(record, Vote):
                last = self._last_voted.get(record.epoch)
                if last is None or record.height > last[0]:
                    self._last_voted[record.epoch] = (record.height, record.block_hash)
                if record.epoch > max_epoch:
                    max_epoch = record.epoch
                    entry_rank = None
            elif VOTE.is_certificate(record):
                if record.rank > self.high_qc.rank:
                    self.high_qc = record
            elif isinstance(record, WalEpochRecord):
                if record.epoch >= max_epoch:
                    max_epoch = record.epoch
                    entry_rank = (record.rank_epoch, record.rank_height)
        self.epoch = max_epoch
        self._entry_rank = entry_rank if entry_rank is not None else self.high_qc.rank
        # Never (re-)propose in a resumed epoch: a pre-crash proposal may
        # already be out there, and a second one would be equivocation.
        self._proposed_in_epoch = True

    def _finish_catchup(self, join_epoch: int) -> None:
        """Re-enter steady state at ``join_epoch`` after catchup."""
        self.epoch = max(self.epoch, join_epoch)
        self.state = ACTIVE
        self._begin_epoch()
        self._proposed_in_epoch = True
        assert self.pacemaker is not None
        self.pacemaker.enter_epoch(self.epoch, made_progress=True)
        self.event("recovery_replay", epoch=self.epoch)
        # Replay blame certificates buffered while recovering: an epoch
        # change that raced the rejoin would otherwise be lost for good.
        pending_certs, self._pending_blame_certs = self._pending_blame_certs, []
        for cert in pending_certs:
            self._handle_blame_cert(cert)
        self._replay_future_headers()
