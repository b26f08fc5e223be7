"""Replica base class shared by all four protocols.

Provides message dispatch, the block store / ledger / mempool wiring,
vote and blame accounting, and small helpers (signing proposals, checking
proposer signatures).  Subclasses declare their handlers in a class-level
``HANDLERS`` mapping from message class to method name; optional
subsystems add theirs through :meth:`BaseReplica.attach`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Type

from ..config import ProtocolConfig
from ..crypto.hashing import Digest
from ..crypto.signatures import Signer
from ..errors import ConfigError, VerificationError
from ..mempool.mempool import Mempool
from ..obs.recorder import SpanRecorder
from ..types.block import Block
from ..types.certificates import (
    BLAME,
    VOTE,
    Blame,
    Certificate,
    Vote,
    is_genesis_qc,
    signing_bytes,
)
from ..types.messages import proposal_signing_bytes, PROPOSAL_DOMAIN
from .blockstore import BlockStore
from .context import Context, Destination
from .ledger import Ledger
from .validators import ValidatorSet

#: The hooks a subsystem may implement — exactly the call sites the
#: protocols have, nothing speculative (DESIGN.md → "Attaching a
#: subsystem").  Each fires in attach order.
HOOKS = ("on_start", "on_epoch_enter", "on_committed", "on_header", "on_certificate",
         "drop_blocks", "journal")


class BaseReplica:
    """Common machinery for a consensus replica.

    Subclasses set :attr:`protocol_name`, :attr:`HANDLERS`, and implement
    :meth:`on_start` plus their message/timer handlers.
    """

    #: Short protocol name, used in signatures and reports.
    protocol_name: str = "abstract"

    #: Message-class → handler-method-name mapping (subclass declares).
    HANDLERS: Dict[Type, str] = {}

    @classmethod
    def handled_wire_phases(cls) -> Tuple[str, ...]:
        """Wire phases derived from :attr:`HANDLERS`, in canonical order
        (names from :data:`repro.obs.wire.WIRE_PHASE_NAMES`).

        Every message class a replica can *receive* is also one its peers
        *send*, so the handler map is the ground truth for which phases
        the protocol's own traffic can occupy.  With the phase of every
        subsystem the protocol can carry (``runner.registry.wire_phases_for``)
        this is its bandwidth contract: the ``repro.obs wire`` drill-down
        flags any observed phase outside it.
        """
        from ..obs.wire import WIRE_PHASE_NAMES, classify_phase

        observed = {classify_phase(m.__name__) for m in cls.HANDLERS}
        return tuple(p for p in WIRE_PHASE_NAMES if p in observed)

    #: Observability sink (set by the cluster builder when the experiment
    #: enables observability).  Only :meth:`event` and :meth:`mark` read
    #: it; recording never touches RNG, scheduler, or the fingerprint
    #: counters (the inertness guarantee).
    obs: Optional[SpanRecorder] = None

    def __init__(
        self,
        replica_id: int,
        validators: ValidatorSet,
        config: ProtocolConfig,
        signer: Signer,
        mempool: Optional[Mempool] = None,
    ) -> None:
        self.replica_id = replica_id
        self.validators = validators
        self.config = config
        self.signer = signer
        self.mempool = mempool if mempool is not None else Mempool()
        self.store = BlockStore()
        self.ledger = Ledger()
        self.ctx: Optional[Context] = None
        self.crashed = False
        self._idle_timer_armed = False
        self._idle_timer_handle: Optional[object] = None
        self._idle_payload: Any = None
        # Message dispatch: HANDLERS resolved to bound methods once, so
        # the per-message hot path is a single dict lookup.
        self._bound_handlers: Dict[Type, Callable[[int, Any], None]] = {
            cls: getattr(self, name) for cls, name in self.HANDLERS.items()
        }
        self._timer_methods: Dict[str, Callable[[Any], None]] = {}
        #: Attached subsystems by name, in attach order — also how anything
        #: outside the replica reaches one (``subsystems.get("guard")``).
        self.subsystems: Dict[str, Any] = {}
        self._hooks: Dict[str, List[Callable[..., None]]] = {hook: [] for hook in HOOKS}
        # Vote accounting: (phase, epoch, block_hash) → {voter → Vote} until
        # its QC; the QC until the retention horizon (advance_horizon).
        self._votes: Dict[Tuple[int, int, Digest], Dict[int, Vote]] = {}
        self._qcs: Dict[Tuple[int, int, Digest], Certificate] = {}
        self.horizon = -config.pipeline_depth
        # Blame accounting: epoch → {blamer → Blame}.
        self._blames: Dict[int, Dict[int, Blame]] = {}
        self._blame_certs: Dict[int, Certificate] = {}
        # Voters attributed a bad signature by batch bisection
        # (crypto_batch only).  Their future votes are dropped outright,
        # so one Byzantine signer cannot re-trigger the bisection on
        # every flood.
        self._excluded_voters: Set[int] = set()

    # -- lifecycle ------------------------------------------------------------

    def bind(self, ctx: Context) -> None:
        """Attach the execution context (simulator or real transport)."""
        self.ctx = ctx
        self.mempool.wakeup = self._on_mempool_wakeup

    def on_start(self) -> None:
        """Called once when the cluster starts; subclasses override."""

    def attach(self, subsystem: Any) -> None:
        """Register an optional subsystem with this replica.

        A subsystem declares ``name``, ``HANDLERS`` (message class →
        method name) and ``TIMERS`` (timer tag → method name) and
        implements any of :data:`HOOKS`.  Its bound methods join the
        replica's own dispatch tables, so dispatch stays one dict lookup
        and a message for a subsystem that is not attached is an unknown
        message.  Methods are resolved on the instance, here, so
        class-level instrumentation installed before the replica was
        built stays in the call path.  A message class, timer tag or name
        that already has an owner raises :class:`ConfigError` before
        anything is registered.
        """
        taken = [subsystem.name] if subsystem.name in self.subsystems else []
        taken += [cls.__name__ for cls in subsystem.HANDLERS if cls in self._bound_handlers]
        taken += [
            tag
            for tag in subsystem.TIMERS
            if tag in self._timer_methods or hasattr(self, f"_timer_{tag}")
        ]
        if taken:
            raise ConfigError(f"cannot attach {subsystem.name!r}: {taken} already owned")
        self.subsystems[subsystem.name] = subsystem
        for msg_cls, method in subsystem.HANDLERS.items():
            self._bound_handlers[msg_cls] = getattr(subsystem, method)
        for tag, method in subsystem.TIMERS.items():
            self._timer_methods[tag] = getattr(subsystem, method)
        for hook, subscribers in self._hooks.items():
            method = getattr(subsystem, hook, None)
            if method is not None:
                subscribers.append(method)

    def _fire(self, hook: str, *args: Any) -> None:
        for subscriber in self._hooks[hook]:
            subscriber(*args)

    def on_timer(self, tag: str, payload: Any) -> None:
        """Timer dispatch: calls ``_timer_<tag>`` if defined."""
        if self.crashed:
            return
        method = self._timer_methods.get(tag)
        if method is None:
            method = getattr(self, f"_timer_{tag}", None)
            if method is None:
                raise VerificationError(f"{self.protocol_name}: unknown timer tag {tag!r}")
            self._timer_methods[tag] = method
        method(payload)

    def handle(self, src: int, msg: object) -> None:
        """Entry point for every incoming message."""
        if self.crashed:
            return
        handler = self._bound_handlers.get(type(msg))
        if handler is None:
            return  # unknown/other-protocol message: ignore
        try:
            handler(src, msg)
        except VerificationError:
            # Evidence of a faulty peer — drop the message, keep running.
            self.event("verification_failed", src=src, msg=type(msg).__name__)

    # -- convenience ------------------------------------------------------------

    @property
    def now(self) -> float:
        assert self.ctx is not None, "replica not bound to a context"
        return self.ctx.now

    def send(self, dst: Destination, msg: object) -> None:
        assert self.ctx is not None
        self.ctx.send(dst, msg)

    def broadcast(self, msg: object, include_self: bool = True) -> None:
        assert self.ctx is not None
        self.ctx.broadcast(msg, include_self=include_self)

    # -- instrumentation ---------------------------------------------------------

    def event(self, kind: str, block: Optional[Digest] = None, **attrs: Any) -> None:
        """Count one ``kind`` through the context and, when a recorder is
        attached, record it with ``block`` and ``attrs`` under the same name.

        The count does not depend on the recorder, so attaching one cannot
        change a fingerprint.
        """
        if self.ctx is not None:
            self.ctx.trace(kind)
            if self.obs is not None:
                self.obs.mark(self.ctx.now, kind, self.replica_id, block, **attrs)

    def mark(self, kind: str, block: Optional[Digest] = None, **attrs: Any) -> None:
        """Record, never count: for the milestones no fingerprint has ever
        counted (:data:`repro.obs.recorder.RECORDED_ONLY`)."""
        if self.obs is not None:
            self.obs.mark(self.now, kind, self.replica_id, block, **attrs)

    def is_leader(self, epoch: int) -> bool:
        return self.validators.leader_of(epoch) == self.replica_id

    def defer_if_idle(self, payload: Any) -> bool:
        """Idle-proposal pacing (see ``ProtocolConfig.idle_propose_delay``).

        Returns True when the caller should *not* propose now because the
        mempool is empty; an ``idle_propose`` timer is armed (once) and the
        protocol's ``_timer_idle_propose`` re-proposes unconditionally.
        """
        if self.config.idle_propose_delay <= 0 or self.mempool.pending_count > 0:
            return False
        if not self._idle_timer_armed:
            self._idle_timer_armed = True
            assert self.ctx is not None
            self._idle_timer_handle = self.ctx.set_timer(
                self.config.idle_propose_delay, "idle_propose", payload
            )
            self._idle_payload = payload
        return True

    def _on_mempool_wakeup(self) -> None:
        """A transaction arrived while the leader was idling: propose now."""
        if not self._idle_timer_armed or self.crashed:
            return
        if self._idle_timer_handle is not None:
            self._idle_timer_handle.cancel()
            self._idle_timer_handle = None
        # Reuse the idle-timer path: it carries the per-protocol guards.
        self.on_timer("idle_propose", self._idle_payload)

    # -- proposal signatures -----------------------------------------------------

    def sign_proposal(self, block_hash: Digest) -> bytes:
        return self.signer.digest_and_sign(PROPOSAL_DOMAIN, proposal_signing_bytes(block_hash))

    def verify_proposal_signature(self, proposer: int, block_hash: Digest, signature: bytes) -> bool:
        return self.signer.verify_digest(
            proposer, PROPOSAL_DOMAIN, proposal_signing_bytes(block_hash), signature
        )

    # -- vote accounting -----------------------------------------------------------

    def record_vote(self, vote: Vote) -> Optional[Certificate]:
        """Validate and store a vote; returns a fresh QC exactly once.

        The returned certificate is produced the moment the quorum is
        reached; its bucket goes with it, and later votes for the same
        statement are checked and dropped, never stored — as is a vote at
        or below the retention horizon.

        With ``crypto_batch`` enabled, signature checking is deferred:
        votes are bucketed unverified and the whole flood is checked in
        one scheme-level batch at quorum time — one multi-exponentiation
        under schnorr instead of f+1 scalar pairs.  A failing batch is
        bisected to the exact bad signatures; those voters are excluded
        (and traced for blame) and the quorum waits for honest votes.
        """
        if not VOTE.is_signed(vote):
            raise VerificationError("not a well-formed vote")
        if vote.protocol != self.protocol_name:
            raise VerificationError("vote for a different protocol")
        if not self.validators.is_valid_replica(vote.voter):
            raise VerificationError(f"vote from unknown replica {vote.voter}")
        lazy = self.config.crypto_batch
        if lazy:
            if vote.voter in self._excluded_voters:
                return None
        elif not vote.verify(self.signer):
            raise VerificationError(f"bad vote signature from {vote.voter}")
        if vote.height <= self.horizon:
            return None
        key = (vote.phase, vote.epoch, vote.block_hash)
        if key in self._qcs:
            return None
        bucket = self._votes.setdefault(key, {})
        if vote.voter in bucket:
            return None
        bucket[vote.voter] = vote
        if len(bucket) < self.validators.quorum:
            return None
        if lazy and not self._batch_check_bucket(vote, bucket):
            return None  # bad votes excluded; quorum no longer met
        qc = Certificate.assemble(
            bucket.values(), self.signer, aggregate=self.config.crypto_aggregate
        )
        self._qcs[key] = qc
        del self._votes[key]
        self._fire("on_certificate", qc)
        return qc

    def _batch_check_bucket(self, vote: Vote, bucket: Dict[int, Vote]) -> bool:
        """Batch-verify a quorum bucket; excise and attribute bad votes.

        Returns True when the (possibly pruned) bucket still holds a
        quorum of batch-verified votes.
        """
        message = signing_bytes(*vote.statement)
        pairs = [v.proof for v in bucket.values()]
        if self.signer.batch_verify_digest(VOTE.domain, message, pairs):
            return True
        for index in self.signer.find_invalid_digest(VOTE.domain, message, pairs):
            voter = pairs[index][0]
            del bucket[voter]
            self._excluded_voters.add(voter)
            self.event("bad_vote_attributed", voter=voter, epoch=vote.epoch, phase=vote.phase)
        return len(bucket) >= self.validators.quorum

    def qc_for(self, phase: int, epoch: int, block_hash: Digest) -> Optional[Certificate]:
        return self._qcs.get((phase, epoch, block_hash))

    def verify_qc(self, qc: Certificate) -> bool:
        """Verify a received certificate (genesis QC is valid by fiat).

        Accepts both proof forms; anything that is not a well-formed
        vote certificate at all is simply invalid.  ``on_certificate``
        hears of each valid one, as of every QC this replica forms.
        """
        if not VOTE.is_certificate(qc):
            return False
        if is_genesis_qc(qc):
            valid = qc.block_hash == self.store.genesis.block_hash
        else:
            valid = qc.protocol == self.protocol_name and qc.verify(self.signer, self.validators)
        if valid:
            self._fire("on_certificate", qc)
        return valid

    def advance_horizon(self) -> None:
        """Release QCs and vote buckets at or below the retention horizon:
        the committed head minus ``pipeline_depth``, lowered to the block
        store's checkpoint floor when checkpointing is on.  A bucket there
        can never reach its quorum, as :meth:`record_vote` drops every
        later vote at those heights.  Called after every commit."""
        horizon = self.ledger.height - self.config.pipeline_depth
        if self.config.checkpoint_interval > 0:
            horizon = min(horizon, self.store.floor)
        if horizon <= self.horizon:
            return
        self.horizon = horizon
        self._qcs = {key: qc for key, qc in self._qcs.items() if qc.height > horizon}
        self._votes = {
            key: bucket for key, bucket in self._votes.items()
            if any(vote.height > horizon for vote in bucket.values())
        }

    # -- blame accounting ------------------------------------------------------------

    def record_blame(self, blame: Blame) -> Optional[Certificate]:
        """Validate and store a blame; returns a fresh cert exactly once."""
        if not BLAME.is_signed(blame):
            raise VerificationError("not a well-formed blame")
        if blame.protocol != self.protocol_name:
            raise VerificationError("blame for a different protocol")
        if not self.validators.is_valid_replica(blame.blamer):
            raise VerificationError(f"blame from unknown replica {blame.blamer}")
        if not blame.verify(self.signer):
            raise VerificationError(f"bad blame signature from {blame.blamer}")
        bucket = self._blames.setdefault(blame.epoch, {})
        if blame.blamer in bucket:
            return None
        bucket[blame.blamer] = blame
        if len(bucket) == self.validators.quorum and blame.epoch not in self._blame_certs:
            cert = Certificate.assemble(
                bucket.values(), self.signer, aggregate=self.config.crypto_aggregate
            )
            self._blame_certs[blame.epoch] = cert
            return cert
        return None

    def verify_blame_cert(self, cert: Certificate) -> bool:
        return (
            BLAME.is_certificate(cert)
            and cert.protocol == self.protocol_name
            and cert.verify(self.signer, self.validators)
        )

    # -- commit helper ------------------------------------------------------------

    def commit_through(self, block_hash: Digest) -> List[Block]:
        """Commit every uncommitted ancestor up to ``block_hash``.

        Blocks need payloads to commit; the caller must have ensured
        availability.  Returns the newly committed blocks (may be empty if
        already committed).
        """
        head_hash = self.ledger.head.block_hash
        if self.ledger.is_committed(self.store.header(block_hash)):
            return []
        headers = self.store.chain_between(block_hash, head_hash)
        blocks = [self.store.block(h.block_hash) for h in headers]
        self.ledger.commit_chain(blocks, self.now)
        for block in blocks:
            self.mempool.remove_committed(block.payload.transactions)
            self.event(
                "commit", block.block_hash, epoch=block.epoch, height=block.height,
                txs=len(block.payload),
            )
        self._fire("on_committed", blocks)
        self.advance_horizon()
        return blocks
