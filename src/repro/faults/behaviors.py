"""Byzantine and crash fault behaviors.

A behavior is applied to a replica at cluster-assembly time by name.
Names accept an optional ``@time`` suffix (e.g. ``crash@2.5``) for
behaviors that trigger at a simulated instant, or an ``@t1:t2`` range
for behaviors spanning an interval (e.g. ``crash-recover@2.0:5.0``).
Everything a name means — how it is applied on each protocol, which
``@`` shape it takes, what it needs of the run, whether the replica
stays honest or restarts — is its row in :data:`BEHAVIORS`.

Available behaviors:

* ``crash[@t]`` — the replica stops sending, receiving, and processing
  timers at time ``t`` (default 0: never participates).
* ``crash-recover@t_down:t_up`` — crash at ``t_down``, then at ``t_up``
  reconstruct the replica from its write-ahead log and re-enter via the
  catchup protocol (requires a protocol that carries recovery; the
  replica builder attaches the ``repro.recovery`` subsystem it runs on).
* ``silent`` — Byzantine silence: processes everything, sends nothing.
* ``equivocate`` — a Byzantine leader proposes two conflicting blocks at
  every height it leads, sending each to half the cluster.  Supported for
  every protocol in the library: AlterBFT and Sync HotStuff (the
  header-relay mechanism is what catches this), HotStuff (quorum
  intersection catches it), and PBFT (prepare-quorum intersection).
* ``withhold_payload`` — a Byzantine leader disseminates as little of its
  proposal as the protocol's message structure allows.  For AlterBFT this
  is the interesting split: headers go out and the payload never leaves
  the leader — it does not even keep a copy, so peers' repair requests
  go unanswered too (exercising payload-repair and blame paths).
  Protocols whose proposals are one combined message cannot separate the
  payload, so withholding degenerates to suppressing proposal-class
  messages toward every peer (the cluster sees a mute leader and must
  change views).
* ``withhold_chunks`` — chunked-dissemination withholding (AlterBFT with
  ``ProtocolConfig.dissemination``): the Byzantine leader headers
  normally but ships fewer than f+1 chunk shares — below the erasure
  code's reconstruction threshold — and refuses chunk and payload-repair
  requests.  Honest replicas can pull forever and never reconstruct:
  the epoch must time out and the next leader restores liveness.
* ``corrupt_chunk`` — gray chunk corruption (AlterBFT with
  ``ProtocolConfig.dissemination``): the leader bit-flips the one share
  it pushes to a single victim replica but answers pull requests
  honestly.  The Merkle check must reject the flipped share on arrival
  and the victim must reconstruct entirely from peer pulls — no epoch
  change, no liveness loss.
* ``bad-vote`` — Byzantine voter: every outbound ``vote``-phase message
  (votes; PBFT's prepares and commits) carries a corrupted (well-formed
  but invalid) signature.  Against an eager verifier each vote is
  rejected on arrival; against the lazy batched verifier
  (``ProtocolConfig.crypto_batch``) the whole flood fails its batch
  check and bisection must attribute the corruption to this replica,
  excluding it from future quorums.
* ``equivocate-inflight`` — cross-in-flight equivocation (pipelined
  AlterBFT): the Byzantine leader proposes honestly until its epoch owns
  a certificate, then — while the certified block's 2Δ commit window is
  still running — streams two conflicting variants of the *next* height
  to the two halves of the cluster (voting for both).  The header relay
  must surface the conflict and the resulting blame must cancel every
  pending commit window of the epoch, the uncommitted-but-certified
  prefix included.
* ``withhold-suffix`` — stale-suffix withholding (pipelined AlterBFT):
  the leader proposes honestly until its epoch owns a certificate, then
  keeps filling its in-flight window with blocks it never sends to
  anyone.  The cluster sees a certified prefix and then silence; the
  epoch must time out, the certified prefix must survive the epoch
  change, and the next leader must re-propose the withheld transactions.
* ``delay_send`` — sends every message as late as the small-message bound
  allows (the strongest *model-respecting* timing adversary).
* ``slow-link@t1:t2`` — gray failure: during ``[t1, t2)`` the replica's
  *outbound small messages* take 1.5–3× the configured Δ, silently
  violating the synchrony bound the protocol's safety argument assumes.
  The replica itself stays honest and live — only its uplink degrades —
  which is exactly the failure mode the synchrony guard
  (:mod:`repro.guard`) exists to detect.  Requires the ``t1:t2`` range.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..baselines.pbft import PREPARE_PHASE
from ..config import ProtocolConfig
from ..consensus.replica import BaseReplica
from ..core.protocol import ACTIVE
from ..errors import ConfigError
from ..net.simnet import SimNetwork
from ..sim.scheduler import Scheduler
from ..types.block import Block, make_block
from ..types.certificates import Vote
from ..types.messages import (
    ChunkResponseMsg,
    ChunkShareMsg,
    HSProposalMsg,
    PayloadMsg,
    PayloadResponseMsg,
    PBFTPrepareMsg,
    PBFTPrePrepareMsg,
    ProposalHeaderMsg,
    SHProposalMsg,
    VoteMsg,
)

#: How a behavior is applied: ``(replica, network, scheduler, when)``,
#: ``when`` being what :func:`parse_behavior` made of the ``@`` suffix.
Applier = Callable[[BaseReplica, SimNetwork, Scheduler, object], None]


def parse_behavior(spec: str) -> Tuple[str, object]:
    """Split ``name@time`` into (name, time).

    ``name`` alone yields ``(name, None)``; ``name@t`` yields
    ``(name, float(t))``; ``name@t1:t2`` yields ``(name, (t1, t2))``
    with ``0 <= t1 < t2`` enforced.
    """
    if "@" not in spec:
        return spec, None
    name, _, when = spec.partition("@")
    if ":" in when:
        lo_text, _, hi_text = when.partition(":")
        try:
            lo, hi = float(lo_text), float(hi_text)
        except ValueError:
            raise ConfigError(f"bad behavior time range in {spec!r}") from None
        if lo < 0:
            raise ConfigError(f"behavior range start must be >= 0 in {spec!r}")
        if hi <= lo:
            raise ConfigError(f"behavior range end must exceed its start in {spec!r}")
        return name, (lo, hi)
    try:
        return name, float(when)
    except ValueError:
        raise ConfigError(f"bad behavior time in {spec!r}") from None


#: The ``@`` shapes a behavior can take (the ``shape`` column).
NO_TIME, INSTANT, RANGE = "none", "instant", "range"


@dataclasses.dataclass(frozen=True)
class Behavior:
    """One row of :data:`BEHAVIORS` — everything a fault name means.

    Attributes:
        apply: protocol name → how the behavior is applied there; a
            protocol without an entry does not support it.
        shape: the ``@`` suffix it takes — :data:`NO_TIME`, an optional
            :data:`INSTANT`, or a required ``t1:t2`` :data:`RANGE`.
        needs_flag: a ``ProtocolConfig`` boolean that must be on.
        honest: the replica stays honest: its ledger is safety-checked
            and it keeps receiving workload.
        restarts: the replica restarts mid-run, so every peer must carry
            the recovery subsystem that serves a rejoiner.
    """

    apply: Mapping[str, Applier]
    shape: str = NO_TIME
    needs_flag: str = ""
    honest: bool = False
    restarts: bool = False


def resolve_behavior(spec: str, protocol: str, pconf: ProtocolConfig) -> Tuple[Behavior, object]:
    """``spec``'s row and parsed ``@`` suffix, for a run of ``protocol``
    under ``pconf`` — or the :class:`ConfigError` saying why that run
    cannot carry it.  ``ExperimentConfig.validate()`` calls this for
    every fault, so a bad one fails before anything is built."""
    name, when = parse_behavior(spec)
    row = BEHAVIORS.get(name)
    if row is None:
        raise ConfigError(f"unknown fault behavior {name!r}")
    ranged = isinstance(when, tuple)
    if row.shape == RANGE and not ranged:
        raise ConfigError(f"{name} needs a t1:t2 range, e.g. {name}@1.5:3.0: {spec!r}")
    if row.shape == INSTANT and ranged:
        raise ConfigError(f"{name} takes a single time, not a range: {spec!r}")
    if row.shape == NO_TIME and when is not None:
        raise ConfigError(f"{name} takes no @time: {spec!r}")
    if protocol not in row.apply:
        raise ConfigError(f"{name} is only supported on {sorted(row.apply)}, got {protocol!r}")
    if row.needs_flag and not getattr(pconf, row.needs_flag):
        raise ConfigError(f"{name} requires ProtocolConfig.{row.needs_flag}")
    return row, when


def apply_behavior(
    spec: str, replica: BaseReplica, network: SimNetwork, scheduler: Scheduler
) -> None:
    """Apply the named behavior to ``replica``: parse ``spec``, look its
    row up in :data:`BEHAVIORS` (:func:`resolve_behavior` — the same
    checks ``ExperimentConfig.validate()`` runs), call the row's applier
    for the replica's protocol."""
    row, when = resolve_behavior(spec, replica.protocol_name, replica.config)
    row.apply[replica.protocol_name](replica, network, scheduler, when)


# ----------------------------------------------------------------------
# Crash and silence
# ----------------------------------------------------------------------


def _apply_crash(
    replica: BaseReplica, network: SimNetwork, scheduler: Scheduler, when: Optional[float]
) -> None:
    def crash() -> None:
        replica.crashed = True
        network.take_down(replica.replica_id)

    if when is None or when <= 0:
        crash()
    else:
        scheduler.at(when, crash)


def _apply_crash_recover(
    replica: BaseReplica,
    network: SimNetwork,
    scheduler: Scheduler,
    when: Tuple[float, float],
) -> None:
    """Crash at ``t_down``; restart from the WAL + catch up at ``t_up``.
    The row's ``restarts`` gets every replica the recovery subsystem."""
    manager = replica.subsystems["recovery"]
    t_down, t_up = when

    def down() -> None:
        replica.event("recovery_down")
        replica.crashed = True
        network.take_down(replica.replica_id)
        if replica.pacemaker is not None:
            replica.pacemaker.stop()

    def up() -> None:
        network.bring_up(replica.replica_id)
        manager.restart()

    scheduler.at(t_down, down)
    scheduler.at(t_up, up)


class _OutboundContext:
    """Context wrapper: ``send(inner, dst, msg)`` and ``broadcast(inner,
    msg, include_self)`` decide what, if anything, of the replica's
    outbound traffic reaches the wrapped context; the rest passes through."""

    def __init__(self, inner, send, broadcast) -> None:  # type: ignore[no-untyped-def]
        self._inner = inner
        self._send = send
        self._broadcast = broadcast
        self.node_id = inner.node_id
        self.n = inner.n

    @property
    def now(self) -> float:
        return self._inner.now

    def send(self, dst: int, msg: object) -> None:
        self._send(self._inner, dst, msg)

    def broadcast(self, msg: object, include_self: bool = True) -> None:
        self._broadcast(self._inner, msg, include_self)

    def set_timer(self, delay: float, tag: str, payload=None):  # type: ignore[no-untyped-def]
        return self._inner.set_timer(delay, tag, payload)

    def trace(self, kind: str) -> None:
        self._inner.trace(kind)


def _filter_outbound(replica: BaseReplica, send, broadcast) -> None:  # type: ignore[no-untyped-def]
    """Route everything ``replica`` sends through ``send``/``broadcast``
    (see :class:`_OutboundContext`) from the moment it is bound."""
    original_bind = replica.bind

    def bind(ctx) -> None:  # type: ignore[no-untyped-def]
        original_bind(_OutboundContext(ctx, send, broadcast))

    replica.bind = bind  # type: ignore[method-assign]


def _apply_silent(replica: BaseReplica, *_: object) -> None:
    """Swallow all outbound traffic (the replica still hears itself)."""

    def broadcast(inner, msg: object, include_self: bool) -> None:  # type: ignore[no-untyped-def]
        if include_self:
            inner.send(inner.node_id, msg)

    _filter_outbound(replica, lambda inner, dst, msg: None, broadcast)


# ----------------------------------------------------------------------
# Equivocation
# ----------------------------------------------------------------------


def _poisoned_variants(
    replica: BaseReplica, epoch: int, height: int, parent: bytes
) -> Tuple[Block, Block]:
    """Two conflicting blocks for the same slot, from one mempool batch.

    Each variant carries a distinct marker transaction so the two blocks
    hash differently even when the batch is empty.
    """
    from ..types.transaction import Transaction

    batch = replica.mempool.take_batch(
        replica.config.max_batch, replica.config.max_payload_bytes
    )
    variants = []
    for marker in (b"\x00", b"\xff"):
        poison = Transaction(
            client_id=replica.replica_id, seq=-1, submitted_at=replica.now, payload=marker
        )
        variants.append(
            make_block(
                epoch=epoch,
                height=height,
                parent=parent,
                transactions=tuple(batch) + (poison,),
                proposer=replica.replica_id,
            )
        )
    return variants[0], variants[1]


def _split_brain(
    replica: BaseReplica, block_a: Block, block_b: Block, send_variant: Callable[..., None]
) -> None:
    """``send_variant(dst, block)`` for every peer in id order (send
    order is RNG-draw order): variant A to the lower half of the
    cluster, variant B to the upper half."""
    half = (replica.validators.n + 1) // 2
    for dst in range(replica.validators.n):
        if dst != replica.replica_id:
            send_variant(dst, block_a if dst < half else block_b)


def _proposal_and_vote(replica: BaseReplica, justify):  # type: ignore[no-untyped-def]
    """The AlterBFT family's ``send_variant``: the variant's proposal
    (header + payload, or Sync HotStuff's one combined message), then the
    Byzantine leader's own vote for it — so either variant can reach a
    quorum, the attack the header-relay + 2Δ window stops (ablation E10)."""
    combined = replica.protocol_name == "sync-hotstuff"

    def send_variant(dst: int, block: Block) -> None:
        signature = replica.sign_proposal(block.block_hash)
        if combined:
            replica.send(dst, SHProposalMsg(block=block, signature=signature, justify=justify))
        else:
            replica.send(
                dst,
                ProposalHeaderMsg(header=block.header, signature=signature, justify=justify),
            )
            replica.send(
                dst,
                PayloadMsg(
                    epoch=replica.epoch,
                    height=block.height,
                    block_hash=block.block_hash,
                    payload=block.payload,
                ),
            )
        vote = Vote.create(
            replica.signer,
            replica.protocol_name,
            block.epoch,
            block.height,
            block.block_hash,
        )
        replica.send(dst, VoteMsg(vote=vote))

    return send_variant


def _apply_equivocate(replica: BaseReplica, *_: object) -> None:
    def propose_twice(force: bool = False) -> None:
        if replica.state != ACTIVE or not replica.is_leader(replica.epoch):
            return
        justify = replica.high_qc
        block_a, block_b = _poisoned_variants(
            replica, replica.epoch, justify.height + 1, justify.block_hash
        )
        replica._proposed_in_epoch = True
        _split_brain(replica, block_a, block_b, _proposal_and_vote(replica, justify))
        replica.event("byz_equivocate", epoch=replica.epoch, height=justify.height + 1)

    replica._propose_block = propose_twice  # type: ignore[method-assign]


# ----------------------------------------------------------------------
# Cross-in-flight attacks (pipelined AlterBFT)
# ----------------------------------------------------------------------


def _apply_equivocate_inflight(replica: BaseReplica, *_: object) -> None:
    """Equivocate on block k+1 while block k's commit window still runs.

    The leader proposes honestly until its epoch owns a certificate — so
    there is a certified-but-uncommitted block whose 2Δ window is open —
    then streams two conflicting variants of the next height to the two
    halves of the cluster, voting for both.  Both variants carry the
    same-epoch justify the pipelined header rule demands, so honest
    replicas *accept and vote* before the relay surfaces the conflict;
    the resulting blame must cancel every pending commit window of the
    epoch, not just the equivocated height's.
    """
    original_emit = replica._emit_proposal
    attacked_epochs: set = set()

    def emit() -> None:
        # Honest until the epoch holds a certificate (the window the
        # attack needs), and at most one attack per led epoch — the
        # blame storm ends the epoch anyway.
        if replica.high_qc.epoch != replica.epoch or replica.epoch in attacked_epochs:
            original_emit()
            return
        attacked_epochs.add(replica.epoch)
        justify = replica.high_qc
        parent_height, parent_hash = replica.pipeline_tip()
        block_a, block_b = _poisoned_variants(
            replica, replica.epoch, parent_height + 1, parent_hash
        )
        # Track one variant so the genuine pipeline loop keeps its
        # in-flight accounting (and still stops at the configured depth).
        replica._inflight.append((block_a.height, block_a.block_hash))
        replica._proposed_in_epoch = True
        _split_brain(replica, block_a, block_b, _proposal_and_vote(replica, justify))
        replica.event(
            "byz_equivocate_inflight", epoch=replica.epoch, height=parent_height + 1
        )

    replica._emit_proposal = emit  # type: ignore[method-assign]


def _apply_withhold_suffix(replica: BaseReplica, *_: object) -> None:
    """Certify a prefix, then withhold the streamed suffix entirely.

    The leader proposes honestly until its epoch owns a certificate,
    then keeps filling its in-flight window with blocks it never sends
    to anyone.  Honest replicas see a certified prefix and then silence:
    the epoch must time out, the certified prefix must survive the epoch
    change (it commits — nothing conflicts with it), and the withheld
    transactions must be re-proposed by a later leader.
    """
    original_emit = replica._emit_proposal

    def emit() -> None:
        # Honest until the epoch holds a certificate — that certificate
        # is the prefix the epoch change must preserve.
        if replica.high_qc.epoch != replica.epoch:
            original_emit()
            return
        parent_height, parent_hash = replica.pipeline_tip()
        batch = replica.mempool.take_batch(
            replica.config.max_batch, replica.config.max_payload_bytes
        )
        block = make_block(
            epoch=replica.epoch,
            height=parent_height + 1,
            parent=parent_hash,
            transactions=tuple(batch),
            proposer=replica.replica_id,
        )
        # The block exists only inside the Byzantine leader: it fills the
        # in-flight window (so the genuine loop stops at depth) but no
        # header, payload, or vote ever leaves this replica.
        replica._inflight.append((block.height, block.block_hash))
        replica._proposed_in_epoch = True
        replica.event("byz_withhold_suffix", epoch=replica.epoch, height=block.height)

    replica._emit_proposal = emit  # type: ignore[method-assign]


# ----------------------------------------------------------------------
# Payload withholding (AlterBFT-specific)
# ----------------------------------------------------------------------


def _apply_withhold_payload(replica: BaseReplica, *_: object) -> None:
    def propose_header_only(force: bool = False) -> None:
        if replica.state != ACTIVE or not replica.is_leader(replica.epoch):
            return
        justify = replica.high_qc
        batch = replica.mempool.take_batch(
            replica.config.max_batch, replica.config.max_payload_bytes
        )
        block = make_block(
            epoch=replica.epoch,
            height=justify.height + 1,
            parent=justify.block_hash,
            transactions=batch,
            proposer=replica.replica_id,
        )
        header_msg = ProposalHeaderMsg(
            header=block.header,
            signature=replica.sign_proposal(block.block_hash),
            justify=justify,
        )
        replica._proposed_in_epoch = True
        replica.event("byz_withhold", epoch=replica.epoch, height=block.height)
        replica.broadcast(header_msg, include_self=False)
        # The payload is dropped here, never stored: the leader has
        # nothing to answer a payload-repair request with either.

    replica._propose_block = propose_header_only  # type: ignore[method-assign]


# ----------------------------------------------------------------------
# Chunked-dissemination faults (AlterBFT + ProtocolConfig.dissemination)
# ----------------------------------------------------------------------


def _apply_withhold_chunks(replica: BaseReplica, network: SimNetwork, *_: object) -> None:
    """Ship fewer chunk shares than the reconstruction threshold.

    The leader's dissemination runs normally but the network filter lets
    only the first ``f`` :class:`ChunkShareMsg` per block out — one short
    of the erasure code's k = f+1 — and silences every repair answer the
    leader could give (chunk responses and blob payload responses).
    Honest replicas hold at most f distinct shares between them, so no
    amount of pulling reconstructs: the negative control.  Liveness must
    come from the epoch change.
    """
    faulty_id = replica.replica_id
    budget = replica.config.f
    shipped: Dict[bytes, int] = {}

    def suppress(src: int, dst: int, msg: object, size: int) -> bool:
        if src != faulty_id:
            return True
        if isinstance(msg, ChunkShareMsg):
            count = shipped.get(msg.block_hash, 0)
            if count >= budget:
                return False
            shipped[msg.block_hash] = count + 1
            return True
        return not isinstance(msg, (ChunkResponseMsg, PayloadResponseMsg, PayloadMsg))

    network.add_filter(suppress)


def _apply_corrupt_chunk(replica: BaseReplica, *_: object) -> None:
    """Bit-flip the one share pushed to a single victim replica.

    A gray fault: the leader is honest on every link except the victim's
    pushed share, and it still answers pull requests correctly.  The
    flipped share must fail the Merkle check on arrival (it never enters
    the victim's share set) and the victim must reconstruct entirely
    from peer pulls — commit latency barely moves and no epoch changes.
    """
    victim = 0 if replica.replica_id != 0 else 1

    def send(inner, dst: int, msg: object) -> None:  # type: ignore[no-untyped-def]
        if dst == victim and isinstance(msg, ChunkShareMsg) and msg.share:
            bad_share = msg.share[:-1] + bytes([msg.share[-1] ^ 0x01])
            msg = dataclasses.replace(msg, share=bad_share)
        inner.send(dst, msg)

    _filter_outbound(
        replica, send, lambda inner, msg, include_self: inner.broadcast(msg, include_self)
    )


# ----------------------------------------------------------------------
# Cross-protocol equivocation (HotStuff, PBFT)
# ----------------------------------------------------------------------


def _apply_equivocate_hotstuff(replica: BaseReplica, *_: object) -> None:
    """Byzantine HotStuff leader: two conflicting proposals per led view.

    Variant A goes to the lower half of the cluster, variant B to the
    upper half, and the leader votes for *both* toward the next leader —
    the strongest push toward two certificates.  With n = 3f+1 any two
    quorums intersect in an honest replica, so at most one variant can be
    certified: the attack must be harmless, which is exactly what the
    agreement checker asserts.
    """

    def propose_twice(force: bool = False) -> None:
        if not replica.is_leader(replica.view) or replica.view in replica._proposed_views:
            return
        justify = replica.high_qc
        block_a, block_b = _poisoned_variants(
            replica, replica.view, justify.height + 1, justify.block_hash
        )
        replica._proposed_views.add(replica.view)

        def send_variant(dst: int, block: Block) -> None:
            replica.send(
                dst,
                HSProposalMsg(
                    block=block,
                    signature=replica.sign_proposal(block.block_hash),
                    justify=justify,
                ),
            )

        _split_brain(replica, block_a, block_b, send_variant)
        next_leader = replica.validators.leader_of(replica.view + 1)
        if next_leader != replica.replica_id:
            for block in (block_a, block_b):
                vote = Vote.create(
                    replica.signer,
                    replica.protocol_name,
                    block.epoch,
                    block.height,
                    block.block_hash,
                )
                replica.send(next_leader, VoteMsg(vote=vote))
        replica.event("byz_equivocate", epoch=replica.view, height=justify.height + 1)

    replica._propose = propose_twice  # type: ignore[method-assign]


def _apply_equivocate_pbft(replica: BaseReplica, *_: object) -> None:
    """Byzantine PBFT leader: two conflicting pre-prepares per sequence.

    The leader accepts variant A locally (so its own pipeline keeps
    producing fresh equivocations as A prepares) and prepare-votes for
    both variants toward everyone.  Prepare quorums of 2f+1 out of 3f+1
    intersect in an honest replica, so at most one variant can prepare.
    """

    def propose_twice(force: bool = False) -> None:
        if not replica.is_leader(replica.view) or replica.in_view_change:
            return
        tip_seq, tip_hash = replica._chain_tip()
        seq = tip_seq + 1
        block_a, block_b = _poisoned_variants(replica, replica.view, seq, tip_hash)
        replica._accepted.setdefault(replica.view, {})[seq] = block_a
        replica.store.add_block(block_a)

        def send_variant(dst: int, block: Block) -> None:
            replica.send(
                dst,
                PBFTPrePrepareMsg(
                    view=replica.view,
                    seq=seq,
                    block=block,
                    signature=replica.sign_proposal(block.block_hash),
                ),
            )

        _split_brain(replica, block_a, block_b, send_variant)
        for block in (block_a, block_b):
            vote = Vote.create(
                replica.signer,
                replica.protocol_name,
                replica.view,
                seq,
                block.block_hash,
                phase=PREPARE_PHASE,
            )
            for dst in range(replica.validators.n):
                if dst != replica.replica_id:
                    replica.send(dst, PBFTPrepareMsg(vote=vote))
        replica.event("byz_equivocate", epoch=replica.view, height=seq)

    replica._propose_next = propose_twice  # type: ignore[method-assign]


# ----------------------------------------------------------------------
# Proposal suppression (withholding for combined-proposal protocols)
# ----------------------------------------------------------------------

#: Wire phases a withholding leader suppresses: its proposals and their
#: payloads.  Small control traffic (votes, blames, view changes) still
#: flows — the leader looks live but proposes nothing.
_WITHHELD_PHASES = ("propose", "payload")


def _apply_withhold_proposals(replica: BaseReplica, network: SimNetwork, *_: object) -> None:
    faulty_id = replica.replica_id

    def suppress(src: int, dst: int, msg: object, size: int) -> bool:
        return src != faulty_id or getattr(msg, "WIRE_PHASE", None) not in _WITHHELD_PHASES

    network.add_filter(suppress)


# ----------------------------------------------------------------------
# Timing adversary
# ----------------------------------------------------------------------


def _apply_delay_send(
    replica: BaseReplica, network: SimNetwork, scheduler: Scheduler, *_: object
) -> None:
    delay = replica.config.delta * 0.5  # hold each message half a Δ
    _filter_outbound(
        replica,
        lambda inner, dst, msg: scheduler.after(delay, inner.send, dst, msg),
        lambda inner, msg, include_self: scheduler.after(
            delay, inner.broadcast, msg, include_self
        ),
    )


# ----------------------------------------------------------------------
# Bad votes in the flood
# ----------------------------------------------------------------------


def _apply_bad_vote(replica: BaseReplica, *_: object) -> None:
    """Byzantine voter: the vote of every outbound ``vote``-phase message
    (AlterBFT's and the HotStuffs' votes, PBFT's prepares and commits)
    carries a corrupted signature.

    The vote is otherwise well-formed (valid voter id, right length), so
    an eager verifier rejects it one message at a time, while a lazy
    batch verifier (``crypto_batch``) sees the whole flood fail and must
    bisect to attribute the corruption — exactly the adversarial case the
    bisection path exists for.
    """

    def corrupt(msg: object) -> object:
        if getattr(msg, "WIRE_PHASE", None) == "vote":
            vote = msg.vote  # type: ignore[attr-defined]
            bad_sig = vote.signature[:-1] + bytes([vote.signature[-1] ^ 0x01])
            return dataclasses.replace(msg, vote=dataclasses.replace(vote, signature=bad_sig))
        return msg

    _filter_outbound(
        replica,
        lambda inner, dst, msg: inner.send(dst, corrupt(msg)),
        lambda inner, msg, include_self: inner.broadcast(corrupt(msg), include_self),
    )


# ----------------------------------------------------------------------
# Gray failure: slow link
# ----------------------------------------------------------------------

#: Outbound small-message inflation range, as multiples of the configured
#: Δ.  The low end (1.5Δ) is an unambiguous violation; the high end (3Δ)
#: keeps the degradation within one or two rungs of the guard's Δ ladder.
SLOW_LINK_FACTOR_LOW = 1.5
SLOW_LINK_FACTOR_HIGH = 3.0


def _apply_slow_link(
    replica: BaseReplica,
    network: SimNetwork,
    scheduler: Scheduler,
    when: Tuple[float, float],
) -> None:
    """Inflate the replica's outbound small-message delays past Δ.

    Implemented as a network delay *policy* so the inflation composes
    with — rather than replaces — whatever base delay model or
    adversarial scheduler the run installed (policies chain; see
    :data:`repro.net.simnet.DelayPolicy`).  The policy draws from a
    private RNG so installing the behavior never perturbs the delay
    model's own RNG stream.
    """
    t1, t2 = when
    target = replica.replica_id
    delta = replica.config.delta
    threshold = network.priority_threshold
    rng = random.Random(0xC0FFEE ^ target)

    def inflate(
        src: int, dst: int, msg: object, size: int, delay: Optional[float]
    ) -> Optional[float]:
        if delay is None:  # pragma: no cover - upstream policy already dropped
            return None
        if src != target or (threshold and size > threshold):
            return delay
        if not t1 <= scheduler.now < t2:
            return delay
        return max(delay, delta * rng.uniform(SLOW_LINK_FACTOR_LOW, SLOW_LINK_FACTOR_HIGH))

    network.add_delay_policy(inflate)


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

_FAMILY = ("alterbft", "sync-hotstuff")
_ALL = _FAMILY + ("hotstuff", "pbft")

#: Every fault behavior by name (see :class:`Behavior` for the columns,
#: the module docstring for what each one does).
BEHAVIORS: Dict[str, Behavior] = {
    "crash": Behavior(dict.fromkeys(_ALL, _apply_crash), shape=INSTANT),
    # Runs wherever recovery is carried: ``restarts`` asks for it.
    "crash-recover": Behavior(
        dict.fromkeys(_ALL, _apply_crash_recover), shape=RANGE, restarts=True
    ),
    "silent": Behavior(dict.fromkeys(_ALL, _apply_silent)),
    "equivocate": Behavior(
        {
            **dict.fromkeys(_FAMILY, _apply_equivocate),
            "hotstuff": _apply_equivocate_hotstuff,
            "pbft": _apply_equivocate_pbft,
        }
    ),
    # Sync HotStuff's proposal is one combined message: there is no
    # header to send alone, so it withholds the way HotStuff and PBFT do.
    "withhold_payload": Behavior(
        {**dict.fromkeys(_ALL, _apply_withhold_proposals), "alterbft": _apply_withhold_payload}
    ),
    "withhold_chunks": Behavior({"alterbft": _apply_withhold_chunks}, needs_flag="dissemination"),
    "corrupt_chunk": Behavior({"alterbft": _apply_corrupt_chunk}, needs_flag="dissemination"),
    "bad-vote": Behavior(dict.fromkeys(_ALL, _apply_bad_vote)),
    # The chained leader these two attack exists on AlterBFT only.
    "equivocate-inflight": Behavior({"alterbft": _apply_equivocate_inflight}),
    "withhold-suffix": Behavior({"alterbft": _apply_withhold_suffix}),
    "delay_send": Behavior(dict.fromkeys(_ALL, _apply_delay_send)),
    "slow-link": Behavior(dict.fromkeys(_ALL, _apply_slow_link), shape=RANGE, honest=True),
}
