"""Every wire message exchanged by the protocols.

Messages are registered dataclasses (see :mod:`repro.codec`), so their
wire size — which drives the hybrid synchronous delay model — is their
genuine encoded size.  Type-id allocation:

* 10–19  core data types (transaction, block, signed statements and
  the genesis certificate's form)
* 20–39  AlterBFT / shared consensus messages
* 40–59  Sync HotStuff (Merkle proofs live in :mod:`repro.crypto.merkle`
  at 41–42)
* 60–79  HotStuff
* 80–99  PBFT
* 100–109 measurement probes and client traffic
* 110–119 synchrony guard (the signed Δ-adjustment lives in
  :mod:`repro.types.certificates` at 110; guard wire messages here at
  112–115) and payload dissemination (chunk messages at 116–118)
* 120–123 certificates (:mod:`repro.types.certificates`)

Each message class declares its protocol phase once, as ``WIRE_PHASE``
next to its fields.  Wire accounting (:func:`repro.obs.wire.classify_phase`),
each protocol's wire contract (``runner.registry.wire_phases_for``) and
the Byzantine behaviours (:mod:`repro.faults.behaviors`) all read that
declaration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

from ..codec import register
from ..crypto.hashing import Digest
from ..crypto.merkle import MerkleMultiProof, MerkleProof
from .block import Block, BlockHeader, BlockPayload
from .certificates import Blame, Certificate, CheckpointVote, DeltaAdjust, Vote

#: Signing domain for proposal headers/blocks (the proposer's signature).
PROPOSAL_DOMAIN = "proposal"

#: Every ``WIRE_PHASE`` a message class may declare, in report order:
#: the leader's proposal, AlterBFT's separate large payload, chunked
#: payload shares, vote floods, leader replacement, on-demand repair of
#: missed proposals/payloads, recovery/state transfer, the synchrony
#: guard, delay probes and client traffic.  "other" is what a class
#: that declares none is accounted to.
WIRE_PHASE_NAMES: Tuple[str, ...] = (
    "propose",
    "payload",
    "dissemination",
    "vote",
    "epoch_change",
    "repair",
    "recovery",
    "guard",
    "measure",
    "client",
    "other",
)


# --------------------------------------------------------------------------
# AlterBFT / shared messages
# --------------------------------------------------------------------------


@register(20)
@dataclass(frozen=True)
class ProposalHeaderMsg:
    """AlterBFT proposal header — a *small* message.

    Carried separately from the payload so the synchrony bound applies to
    it.  Replicas relay the first header they see for each (epoch, height)
    so that leader equivocation becomes visible to all honest replicas
    within Δ.

    Attributes:
        header: the block header being proposed.
        signature: proposer's signature over the header hash.
        justify: certificate for the parent block this header extends.
    """

    WIRE_PHASE: ClassVar[str] = "propose"
    header: BlockHeader
    signature: bytes
    justify: Certificate


@register(21)
@dataclass(frozen=True)
class PayloadMsg:
    """AlterBFT block payload — a *large* message, eventually timely."""

    WIRE_PHASE: ClassVar[str] = "payload"
    epoch: int
    height: int
    block_hash: Digest
    payload: BlockPayload


@register(23)
@dataclass(frozen=True)
class VoteMsg:
    """A vote, broadcast (AlterBFT/Sync HotStuff) or sent to the leader."""

    WIRE_PHASE: ClassVar[str] = "vote"
    vote: Vote


@register(24)
@dataclass(frozen=True)
class BlameMsg:
    """A signed blame against the current epoch's leader."""

    WIRE_PHASE: ClassVar[str] = "epoch_change"
    blame: Blame


@register(25)
@dataclass(frozen=True)
class BlameCertMsg:
    """A blame certificate; receiving one forces an epoch change."""

    WIRE_PHASE: ClassVar[str] = "epoch_change"
    cert: Certificate


@register(26)
@dataclass(frozen=True)
class EquivocationProofMsg:
    """Two conflicting proposals signed by one leader — transferable proof.

    Two headers from the same epoch *conflict* when they cannot lie on a
    single chain: same height with different hashes, two distinct epoch
    anchors (both justified by pre-epoch certificates), or adjacent
    heights whose parent link is broken.  Any replica holding this proof
    can convince every other replica the leader is Byzantine, regardless
    of timing.  Full proposal messages are carried so the verifier can
    check the justify certificates that define anchors.
    """

    WIRE_PHASE: ClassVar[str] = "epoch_change"
    first: "ProposalHeaderMsg"
    second: "ProposalHeaderMsg"


@register(27)
@dataclass(frozen=True)
class StatusMsg:
    """Epoch-change status report: the sender's highest certificate."""

    WIRE_PHASE: ClassVar[str] = "epoch_change"
    sender: int
    new_epoch: int
    high_qc: Certificate


@register(28)
@dataclass(frozen=True)
class PayloadRequestMsg:
    """Ask a peer for the payload of a known header (repair path)."""

    WIRE_PHASE: ClassVar[str] = "repair"
    block_hash: Digest
    height: int


@register(29)
@dataclass(frozen=True)
class PayloadResponseMsg:
    """Answer to :class:`PayloadRequestMsg`."""

    WIRE_PHASE: ClassVar[str] = "repair"
    block_hash: Digest
    payload: BlockPayload


# --------------------------------------------------------------------------
# The block fetch, every protocol's one way to ask for blocks it lacks
# (see repro.consensus.fetch): a small request for a large answer.
# --------------------------------------------------------------------------


@register(37)
@dataclass(frozen=True)
class BlockRangeRequestMsg:
    """Ask one provider for its certified chain above ``from_height``.
    ``sender`` is not read; it stays for the message's bytes."""

    WIRE_PHASE: ClassVar[str] = "repair"
    sender: int
    from_height: int


@register(38)
@dataclass(frozen=True)
class BlockRangeResponseMsg:
    """Answer to :class:`BlockRangeRequestMsg`: the provider's tip
    certificate (``justify``), full blocks where it holds the payload and
    bare headers otherwise — a *large* message, eventually timely."""

    WIRE_PHASE: ClassVar[str] = "repair"
    justify: Certificate
    blocks: Tuple[Block, ...]
    headers: Tuple[BlockHeader, ...]


# --------------------------------------------------------------------------
# Recovery / state transfer (AlterBFT family; see repro.recovery)
#
# The hybrid model applies to recovery too: checkpoint votes and
# status requests/responses are *small* (Δ-bounded) control messages,
# while the state itself comes in the fetch's range responses above,
# which carry full payloads and are *large* (eventually timely) — exactly
# the split the paper's thesis requires of every protocol message.
# --------------------------------------------------------------------------


@register(32)
@dataclass(frozen=True)
class CheckpointVoteMsg:
    """Broadcast checkpoint attestation — a *small* message."""

    WIRE_PHASE: ClassVar[str] = "recovery"
    vote: CheckpointVote


@register(33)
@dataclass(frozen=True)
class StatusRequestMsg:
    """A rejoining replica asks everyone where the chain is — small."""

    WIRE_PHASE: ClassVar[str] = "recovery"
    sender: int


@register(34)
@dataclass(frozen=True)
class StatusResponseMsg:
    """Answer to :class:`StatusRequestMsg` — small.

    Attributes:
        sender: responding replica.
        epoch: responder's current epoch.
        ledger_height: responder's committed height.
        checkpoint: highest checkpoint certificate the responder holds
            (None when checkpointing is off or no certificate formed yet).
        tip: responder's highest quorum certificate.
    """

    WIRE_PHASE: ClassVar[str] = "recovery"
    sender: int
    epoch: int
    ledger_height: int
    checkpoint: Optional[Certificate]
    tip: Certificate


# --------------------------------------------------------------------------
# Sync HotStuff
# --------------------------------------------------------------------------


@register(40)
@dataclass(frozen=True)
class SHProposalMsg:
    """Sync HotStuff proposal: the *entire block* in one message.

    This is the message whose worst-case delay the classical synchronous
    model must bound, which is why Sync HotStuff's Δ must be large.
    """

    WIRE_PHASE: ClassVar[str] = "propose"
    block: Block
    signature: bytes
    justify: Certificate


# --------------------------------------------------------------------------
# HotStuff (partially synchronous, chained)
# --------------------------------------------------------------------------


@register(60)
@dataclass(frozen=True)
class HSProposalMsg:
    """Chained HotStuff proposal for one view."""

    WIRE_PHASE: ClassVar[str] = "propose"
    block: Block
    signature: bytes
    justify: Certificate


@register(61)
@dataclass(frozen=True)
class HSNewViewMsg:
    """Timeout/new-view message carrying the sender's highest QC."""

    WIRE_PHASE: ClassVar[str] = "epoch_change"
    sender: int
    view: int
    high_qc: Certificate
    signature: bytes


# --------------------------------------------------------------------------
# PBFT
# --------------------------------------------------------------------------


@register(80)
@dataclass(frozen=True)
class PBFTPrePrepareMsg:
    """Leader's ordering proposal for sequence number ``seq``."""

    WIRE_PHASE: ClassVar[str] = "propose"
    view: int
    seq: int
    block: Block
    signature: bytes


@register(81)
@dataclass(frozen=True)
class PBFTPrepareMsg:
    """Prepare-phase vote (phase 1)."""

    WIRE_PHASE: ClassVar[str] = "vote"
    vote: Vote


@register(82)
@dataclass(frozen=True)
class PBFTCommitMsg:
    """Commit-phase vote (phase 2)."""

    WIRE_PHASE: ClassVar[str] = "vote"
    vote: Vote


@register(83)
@dataclass(frozen=True)
class PBFTViewChangeMsg:
    """View-change request carrying prepared-but-uncommitted evidence.

    Attributes:
        sender: requesting replica.
        new_view: the view being moved to.
        last_committed: sender's last committed sequence number.
        commit_proof: phase-2 certificate proving ``last_committed`` really
            committed (None only when ``last_committed`` is 0) — this is
            the checkpoint proof that lets the new view start above it.
        prepared: tuple of (seq, prepare-QC, block) for every sequence the
            sender prepared above ``last_committed``.
        signature: sender's signature over (new_view, last_committed).
    """

    WIRE_PHASE: ClassVar[str] = "epoch_change"
    sender: int
    new_view: int
    last_committed: int
    commit_proof: Optional[Certificate]
    prepared: Tuple[Tuple[int, Certificate, Block], ...]
    signature: bytes


@register(84)
@dataclass(frozen=True)
class PBFTNewViewMsg:
    """New leader's view installation.

    Carries the 2f+1 view-change messages; every replica deterministically
    derives the same re-proposals from them, so the leader does not need
    to (and cannot convincingly) pick different ones.
    """

    WIRE_PHASE: ClassVar[str] = "epoch_change"
    new_view: int
    view_changes: Tuple[PBFTViewChangeMsg, ...]
    signature: bytes


# --------------------------------------------------------------------------
# Measurement and client traffic
# --------------------------------------------------------------------------


@register(100)
@dataclass(frozen=True)
class ProbeMsg:
    """One-way delay probe of a configurable size."""

    WIRE_PHASE: ClassVar[str] = "measure"
    probe_id: int
    sent_at: float
    padding: bytes


@register(101)
@dataclass(frozen=True)
class ProbeAckMsg:
    """Acknowledgment carrying both timestamps for RTT estimation."""

    WIRE_PHASE: ClassVar[str] = "measure"
    probe_id: int
    sent_at: float
    received_at: float


@register(103)
@dataclass(frozen=True)
class ClientReplyMsg:
    """Commit notification sent back to a client."""

    WIRE_PHASE: ClassVar[str] = "client"
    client_id: int
    seq: int
    committed_at: float
    result: Optional[bytes]


# --------------------------------------------------------------------------
# Synchrony guard (AlterBFT family; see repro.guard)
#
# All guard traffic is *small* by construction: the whole point is to
# measure and re-certify the small-message bound, so the guard's own
# messages must themselves live under it.
# --------------------------------------------------------------------------


@register(112)
@dataclass(frozen=True)
class GuardProbeMsg:
    """Signed synchrony probe, broadcast every ``guard_probe_interval``.

    Keeps every link's delay estimate fresh even when consensus traffic
    is sparse.  Signed so a Byzantine replica cannot forge probes in a
    peer's name to poison that peer's measured delay distribution.
    """

    WIRE_PHASE: ClassVar[str] = "guard"
    sender: int
    seq: int
    sent_at: float
    signature: bytes


@register(113)
@dataclass(frozen=True)
class GuardProbeEchoMsg:
    """Signed reply to a :class:`GuardProbeMsg`.

    Generates reverse-path small-message traffic (so both directions of
    every link are sampled) and carries the original send time for
    RTT-style cross-checks.
    """

    WIRE_PHASE: ClassVar[str] = "guard"
    sender: int
    seq: int
    probe_sender: int
    probe_sent_at: float
    signature: bytes


@register(114)
@dataclass(frozen=True)
class DeltaAdjustMsg:
    """A broadcast :class:`repro.types.certificates.DeltaAdjust` proposal."""

    WIRE_PHASE: ClassVar[str] = "guard"
    adjust: DeltaAdjust


@register(115)
@dataclass(frozen=True)
class DeltaAdjustCertMsg:
    """A gossiped Δ-adjustment certificate; receiving one schedules the
    new rung for installation at the next epoch boundary."""

    WIRE_PHASE: ClassVar[str] = "guard"
    cert: Certificate


# --------------------------------------------------------------------------
# Payload dissemination (AlterBFT; see repro.dissem)
#
# The leader erasure-codes each payload into n Merkle-rooted shares and
# sends every replica one share; replicas pull the rest from peers.  A
# share is payload_size/(f+1) bytes plus a logarithmic proof — for the
# workloads the paper studies that is still a *large* message, but a
# factor f+1 smaller than the blob, which is what flattens the leader's
# egress spike.  Requests stay small.
# --------------------------------------------------------------------------


@register(116)
@dataclass(frozen=True)
class ChunkShareMsg:
    """One erasure-coded share of a block payload.

    Attributes:
        epoch: epoch of the proposal the payload belongs to.
        height: chain height of the proposal.
        block_hash: header hash binding the share to one proposal.
        chunk_root: Merkle root over all n shares' bytes.
        k: reconstruction threshold (any k shares decode; k = f+1).
        n: total number of shares the payload was coded into.
        index: this share's position in 0..n-1.
        share: the share bytes.
        proof: inclusion proof of ``share`` under ``chunk_root``.
    """

    WIRE_PHASE: ClassVar[str] = "dissemination"
    epoch: int
    height: int
    block_hash: Digest
    chunk_root: Digest
    k: int
    n: int
    index: int
    share: bytes
    proof: MerkleProof


@register(117)
@dataclass(frozen=True)
class ChunkRequestMsg:
    """Pull request for missing payload shares — a *small* message.

    Attributes:
        sender: requesting replica (responses go back to it).
        epoch: epoch of the proposal being reconstructed.
        height: chain height of the proposal.
        block_hash: proposal whose shares are wanted.
        have: share indexes the requester already holds; the provider
            answers with verified shares outside this set.
    """

    WIRE_PHASE: ClassVar[str] = "dissemination"
    sender: int
    epoch: int
    height: int
    block_hash: Digest
    have: Tuple[int, ...]


@register(118)
@dataclass(frozen=True)
class ChunkResponseMsg:
    """Answer to :class:`ChunkRequestMsg` — up to k-1 shares under one
    compact multiproof (instead of one single-leaf path per share).

    Self-contained: carries the coding parameters so even a replica
    whose every pushed share was lost or corrupt can verify and decode.
    """

    WIRE_PHASE: ClassVar[str] = "dissemination"
    epoch: int
    height: int
    block_hash: Digest
    chunk_root: Digest
    k: int
    n: int
    indexes: Tuple[int, ...]
    shares: Tuple[bytes, ...]
    proof: MerkleMultiProof


def proposal_signing_bytes(block_hash: Digest) -> bytes:
    """Bytes a proposer signs when proposing a header or block."""
    return block_hash
