"""Replica base class shared by all four protocols.

Provides message dispatch, the block store / ledger / mempool wiring,
vote and blame quorums, the block fetch, and small helpers (signing
proposals, checking proposer signatures).  Subclasses declare their
handlers in a class-level ``HANDLERS`` mapping from message class to
method name; optional subsystems add theirs through :meth:`BaseReplica.attach`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from ..config import ProtocolConfig
from ..crypto.hashing import Digest
from ..crypto.signatures import Signer
from ..errors import ConfigError, VerificationError
from ..mempool.mempool import Mempool
from ..obs.recorder import SpanRecorder
from ..types.block import Block
from ..types.certificates import BLAME, VOTE, Certificate, Vote, is_genesis_qc
from ..types.messages import proposal_signing_bytes, PROPOSAL_DOMAIN
from .blockstore import BlockStore
from .context import Context, Destination
from .fetch import Fetch
from .ledger import Ledger
from .quorum import QuorumCollector
from .validators import ValidatorSet

#: The hooks a subsystem may implement — exactly the call sites the
#: protocols have, nothing speculative (DESIGN.md → "Attaching a
#: subsystem").  Each fires in attach order.
HOOKS = ("on_start", "on_epoch_enter", "on_committed", "on_header", "on_certificate",
         "on_fetched", "drop_blocks", "journal")


class BaseReplica:
    """Common machinery for a consensus replica.

    Subclasses set :attr:`protocol_name`, :attr:`HANDLERS`, :attr:`FEATURES`,
    ``epoch_changes``, and implement :meth:`on_start`, their handlers and
    the fetch's ``fetch_tip()`` (the certificate, of :attr:`TIP_PHASE`, its
    chain is served under) and ``_fetched(justify, chain)`` (its one step).
    """

    #: Short protocol name, used in signatures and reports.
    protocol_name: str = "abstract"

    #: Message-class → handler-method-name mapping (subclass declares).
    HANDLERS: Dict[Type, str] = {}

    #: The optional features this protocol carries, named as in
    #: :meth:`ProtocolConfig.features`; HotStuff and PBFT carry none.
    FEATURES: Tuple[str, ...] = ()

    #: The only vote phase a fetched chain is accepted under.
    TIP_PHASE = 0

    @classmethod
    def refuse_uncarried(cls, config: ProtocolConfig, restarts: bool = False) -> None:
        """The one check of :attr:`FEATURES`: refuse, naming the setting,
        each feature ``config`` asks for (and recovery, for a run that
        ``restarts`` a replica) that this class does not carry."""
        asked = config.features(restarts)
        uncarried = [f"{name} ({why})" for name, why in asked.items() if name not in cls.FEATURES]
        if uncarried:
            raise ConfigError(f"{cls.protocol_name} does not carry {', '.join(uncarried)}")

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
        self.refuse_uncarried(config)
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
        #: The one way to get blocks it lacks; rebuilt, like the quorums, by a restart.
        self.fetch = Fetch(self)
        self._bind(self.fetch)
        #: Attached subsystems by name, in attach order — also how anything
        #: outside the replica reaches one (``subsystems.get("guard")``).
        self.subsystems: Dict[str, Any] = {}
        self._hooks: Dict[str, List[Callable[..., None]]] = {hook: [] for hook in HOOKS}
        # Quorums (DESIGN.md → "Quorums"): a vote until its QC, the QC
        # until the retention horizon (advance_horizon); a blame until its
        # epoch's certificate.
        self.votes = QuorumCollector(self, VOTE, batch=config.crypto_batch)
        self.blames = QuorumCollector(self, BLAME)
        self.horizon = -config.pipeline_depth

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
        self._bind(subsystem)
        for hook, subscribers in self._hooks.items():
            method = getattr(subsystem, hook, None)
            if method is not None:
                subscribers.append(method)

    def _bind(self, owner: Any) -> None:
        """Join ``owner``'s message handlers and timers to the dispatch tables."""
        for msg_cls, method in owner.HANDLERS.items():
            self._bound_handlers[msg_cls] = getattr(owner, method)
        for tag, method in owner.TIMERS.items():
            self._timer_methods[tag] = getattr(owner, method)

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

    def record_vote(self, src: int, vote: Vote) -> Optional[Certificate]:
        """Check a vote ``src`` sent and count it toward its QC; returns
        the QC exactly once.

        :attr:`votes` checks it (a vote counts only from its own voter)
        and buckets it by its whole statement, so a validly signed vote
        for the same block at another height is a statement of its own
        and cannot spoil the block's quorum.  What is this replica's is
        the retention horizon: a vote at or below it is checked and
        dropped, never stored.  With ``crypto_batch`` the signatures are
        checked together at quorum time; a voter caught with a bad one is
        excluded (and traced for blame) and the quorum waits for honest
        votes.
        """
        self.votes.check(src, vote)
        if vote.height <= self.horizon:
            return None
        qc = self.votes.add(vote)
        if qc is not None:
            self._fire("on_certificate", qc)
        return qc

    def qc_for(
        self, phase: int, epoch: int, height: int, block_hash: Digest
    ) -> Optional[Certificate]:
        """The QC this replica formed for the statement, until the horizon."""
        return self.votes.certified.get((self.protocol_name, phase, epoch, height, block_hash))

    def verify_qc(self, qc: Certificate) -> bool:
        """Verify a received certificate (genesis QC is valid by fiat).

        ``on_certificate`` hears of each valid one, as of every QC this
        replica forms.
        """
        if VOTE.is_certificate(qc) and is_genesis_qc(qc):
            valid = qc.block_hash == self.store.genesis.block_hash
        else:
            valid = self.votes.certifies(qc)
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
        self.votes.release(horizon)

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
