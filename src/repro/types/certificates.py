"""Signed statements and the certificates built from them.

Replicas sign four kinds of *statement* — a vote for a block, a blame of
an epoch's leader, a checkpoint of a committed prefix, a Δ-adjustment —
and a quorum of matching signatures is a *certificate*.  Certificates are
*self-certifying*: they carry the proof, so any replica can verify one
without trusting the relayer.  The same structures serve all four
protocols; only the quorum size differs (f+1 under n=2f+1 synchrony,
2f+1 under n=3f+1 partial synchrony).

Two behaviours and no more: a :class:`SignedStatement` is statement
fields + signer id + signature; a :class:`Certificate` is statement
fields + a signer bitmap + one aggregate signature.  Certificates ride
the small-message class the synchrony bound is calibrated against, and
the aggregate is the smallest proof of a quorum, so it is the only form
a quorum travels in.  The codec wants one class per type id, so the wire
classes below are field declarations over those two.  The one exception is
:class:`QuorumCertificate` (id 15), the form of the genesis certificate:
the retired list form of a vote certificate, ``(id, signature)`` pairs
where the bitmap and aggregate are, whose list must be empty.

The codec holds every field of a decoded object to its annotation, so
what is checked here are values only: that a certificate is of the kind
asked for, that its bitmap is not negative and names members, and that a
genesis-form list is empty.

Rogue-key safety lives in the scheme (see ``crypto/aggregate.py``):
per-signer challenges bind each public key individually, so a key
registered as a function of honest keys gains nothing.  On top of that,
the bitmap names the signer set explicitly and verification resolves
public keys through the shared registry — a certificate cannot smuggle in
an unregistered key at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import TYPE_CHECKING, ClassVar, Iterable, Tuple, Type

from ..codec import encode, register
from ..crypto.hashing import Digest, short_hex
from ..crypto.signatures import Signer
from ..errors import VerificationError

if TYPE_CHECKING:  # consensus imports types; the reverse is annotation-only
    from ..consensus.validators import ValidatorSet


def pack_signer_bits(signer_ids) -> int:
    """Pack a collection of replica ids into a signer bitmap."""
    bits = 0
    for signer_id in signer_ids:
        bits |= 1 << signer_id
    return bits


def unpack_signer_bits(bits: int) -> Tuple[int, ...]:
    """Unpack a signer bitmap into sorted replica ids.

    A negative bitmap is malformed (the right shift below would never
    terminate on one) and unpacks to the empty set.
    """
    if bits < 0:
        return ()
    ids = []
    index = 0
    while bits:
        if bits & 1:
            ids.append(index)
        bits >>= 1
        index += 1
    return tuple(ids)


@lru_cache(maxsize=1 << 14)
def signing_bytes(*statement) -> bytes:
    """Canonical bytes a signature over ``statement`` (its fields, in
    order) covers.

    The signing domain is not part of them: ``Signer.digest_and_sign``
    hashes it in, which is what keeps a signature over one kind of
    statement from verifying as another.  Memoized: a quorum check
    re-derives the same bytes once per (signer-independent) statement
    instead of once per signature.
    """
    return encode(statement)


class Statement:
    """One kind of thing replicas sign: a signing domain + named fields.

    The field order is both the signing order and the leading wire order
    of every class over the statement; their types are those classes'
    annotations.
    """

    def __init__(self, domain: str, *fields: str) -> None:
        self.domain = domain
        self.fields: Tuple[str, ...] = fields
        #: The certificate wire class over this statement, set as defined.
        self.certificate: Type["Certificate"]

    def is_signed(self, obj: object) -> bool:
        """True iff ``obj`` is a signed statement of this kind."""
        return isinstance(obj, SignedStatement) and obj.KIND is self

    def is_certificate(self, obj: object) -> bool:
        """True iff ``obj`` is a certificate over this kind of statement
        whose proof names no impossible signer set."""
        return isinstance(obj, Certificate) and obj.KIND is self and obj.proof_is_sound()


#: Votes are shared across protocols; the phase field separates
#: multi-phase protocols like PBFT/HotStuff.  Including the protocol name
#: (here and in every statement) prevents cross-protocol replay when two
#: protocols share a key registry inside one test process.
VOTE = Statement("vote", "protocol", "phase", "epoch", "height", "block_hash")

BLAME = Statement("blame", "protocol", "epoch")

#: Recovery subsystem.
CHECKPOINT = Statement("checkpoint", "protocol", "height", "block_hash", "state_digest")

#: Guard subsystem.  ``seq`` is the count of adjustments the proposer has
#: already installed, so a certificate for one rung switch cannot be
#: replayed to re-trigger it later; ``rung`` is the target exponent on the
#: Δ ladder (effective Δ = ``base_delta * 2**rung``).  Agreeing on a
#: discrete rung rather than a raw float lets replicas with slightly
#: divergent local tail estimates still produce *matching* adjustments.
DELTA_ADJUST = Statement("delta-adjust", "protocol", "seq", "rung")


class _OverStatement:
    """What both behaviours share: leading fields that are a statement."""

    KIND: ClassVar[Statement]

    def __init_subclass__(cls, kind: Statement = None, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if kind is None:
            return  # one of the two behaviour bases, not a wire class
        names = tuple(cls.__annotations__)
        count = len(kind.fields)
        if names[:count] != kind.fields:
            raise TypeError(f"{cls.__name__} must lead with the {kind.domain} fields")
        cls.KIND = kind
        cls.statement = property(attrgetter(*names[:count]), doc="The statement fields.")
        cls.proof = property(attrgetter(*names[count:]), doc="The trailing field(s).")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shown = " ".join(short_hex(v) if type(v) is bytes else str(v) for v in self.statement)
        by = f"x{self.signer_count}" if isinstance(self, Certificate) else f"by {self.proof[0]}"
        return f"{type(self).__name__}({shown} {by})"


class SignedStatement(_OverStatement):
    """Statement fields + a one-signer proof: ``(signer id, signature)``
    (ids 14, 16, 18, 110)."""

    @classmethod
    def create(cls, signer: Signer, *statement, **named):
        """Sign a statement (its fields, in order or by name) as ``signer``."""
        kind = cls.KIND
        if len(statement) + len(named) != len(kind.fields):
            raise TypeError(f"{cls.__name__}.create takes {', '.join(kind.fields)}")
        statement += tuple(named[name] for name in kind.fields[len(statement) :])
        signature = signer.digest_and_sign(kind.domain, signing_bytes(*statement))
        return cls(*statement, signer.replica_id, signature)

    def verify(self, signer: Signer) -> bool:
        """Check the signature (``signer`` supplies the key registry).

        The verdict is memoized on the object per (scheme, registry): a
        broadcast vote reaches every replica of a simulated cluster as
        the same object, and all replicas share one registry, so the
        repeat verifications are object-identical.  A different registry
        or scheme (e.g. a second cluster in one test process) recomputes.
        The memo lives outside the dataclass fields, so a tampered copy
        made with ``dataclasses.replace`` starts without one.
        """
        memo = self.__dict__.get("_verify_memo")
        if (
            memo is not None
            and memo[0] is signer.scheme
            and memo[1] is signer.registry
        ):
            return memo[2]
        signer_id, signature = self.proof
        ok = signer.verify_digest(
            signer_id, self.KIND.domain, signing_bytes(*self.statement), signature
        )
        object.__setattr__(self, "_verify_memo", (signer.scheme, signer.registry, ok))
        return ok


class Certificate(_OverStatement):
    """Statement fields + a proof that a quorum signed them: the trailing
    ``signer_bits`` + ``agg_signature`` (ids 120–123).
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "signer_bits" in cls.__annotations__:
            cls.KIND.certificate = cls

    @staticmethod
    def assemble(signed: Iterable[SignedStatement], signer: Signer) -> "Certificate":
        """Build the certificate a quorum of signed statements proves.

        ``signer`` resolves ids to public keys for the aggregation
        transcript.  The one caller is the quorum collector
        (``consensus/quorum.py``), which checks the statements *before*
        assembling: aggregation is a compression step, and an invalid input
        signature yields an aggregate that fails verification, losing the
        attribution a statement-level check provides.  The collector
        buckets by the whole statement, so divergent statements never
        reach here from it; refusing them stays the type's own guard.  The
        scheme vouches for the aggregate in its verify cache only if it
        holds every input as valid itself (``SignatureScheme.aggregate``),
        so soundness never rests on a caller having checked.
        """
        signed = tuple(signed)
        kind, statement = signed[0].KIND, signed[0].statement
        if any(s.KIND is not kind or s.statement != statement for s in signed):
            raise VerificationError(f"cannot certify divergent {kind.domain} statements")
        pairs = tuple(sorted(s.proof for s in signed))
        return kind.certificate(
            *statement,
            pack_signer_bits(signer_id for signer_id, _ in pairs),
            signer.aggregate_digest(kind.domain, signing_bytes(*statement), pairs),
        )

    @property
    def rank(self) -> Tuple[int, int]:
        """Ordering key of a vote certificate: (epoch, height)."""
        return (self.epoch, self.height)

    @property
    def signer_count(self) -> int:
        """Number of distinct signers backing this certificate."""
        return bin(self.signer_bits).count("1")

    @property
    def signer_ids(self) -> Tuple[int, ...]:
        """Sorted replica ids of the signers."""
        return unpack_signer_bits(self.signer_bits)

    def proof_is_sound(self) -> bool:
        """The bitmap is not negative (unpacking one would never end)."""
        return self.signer_bits >= 0

    def verify(self, signer: Signer, validators: "ValidatorSet") -> bool:
        """Check soundness, quorum and membership of the signer set, and the
        aggregate signature (called through
        ``QuorumCollector.certifies``, with the kind and protocol checks).

        Memoized per (scheme, registry, validator set) on the certificate
        object — see :meth:`SignedStatement.verify` for why this is sound
        in-process.
        """
        memo = self.__dict__.get("_verify_memo")
        if (
            memo is not None
            and memo[0] is signer.scheme
            and memo[1] is signer.registry
            and memo[2] == validators
        ):
            return memo[3]
        ok = self._verify_uncached(signer, validators)
        object.__setattr__(self, "_verify_memo", (signer.scheme, signer.registry, validators, ok))
        return ok

    def _verify_uncached(self, signer: Signer, validators: "ValidatorSet") -> bool:
        # A bitmap naming a non-member is rejected before the unpacking,
        # which it also bounds to n bits.
        if not self.proof_is_sound() or not validators.covers_bits(self.signer_bits):
            return False
        signer_ids = unpack_signer_bits(self.signer_bits)
        return len(signer_ids) >= validators.quorum and signer.verify_aggregate_digest(
            signer_ids, self.KIND.domain, signing_bytes(*self.statement), self.agg_signature
        )


@register(14)
@dataclass(frozen=True, repr=False)
class Vote(SignedStatement, kind=VOTE):
    """A signed vote for a block hash in an epoch/phase.

    Attributes:
        protocol: short protocol name the vote belongs to.
        phase: protocol-specific phase number (0 for single-phase votes).
        epoch: epoch/view of the vote.
        height: height of the voted block.
        block_hash: digest of the voted block's header.
        voter: replica id of the signer.
        signature: signature over the :data:`VOTE` signing bytes.
    """

    protocol: str
    phase: int
    epoch: int
    height: int
    block_hash: Digest
    voter: int
    signature: bytes

    @classmethod
    def create(
        cls,
        signer: Signer,
        protocol: str,
        epoch: int,
        height: int,
        block_hash: Digest,
        phase: int = 0,
    ) -> "Vote":
        """``phase`` trails as a keyword although it is second on the wire."""
        return super().create(signer, protocol, phase, epoch, height, block_hash)



@register(15)
@dataclass(frozen=True, repr=False)
class QuorumCertificate(Certificate, kind=VOTE):
    """The genesis certificate's form (see :func:`genesis_qc`); a quorum
    of votes travels as an :class:`AggregateQuorumCertificate`.

    The retired list form: ``votes`` held the voter-sorted ``(id,
    signature)`` pairs.  It must be empty — a list naming any signer is
    not sound — so an instance names no signer and never reaches a
    quorum.  A peer that sends one carrying signatures is refused like any
    other unsound certificate.
    """

    protocol: str
    phase: int
    epoch: int
    height: int
    block_hash: Digest
    votes: Tuple[Tuple[int, bytes], ...]  # always ()

    #: The empty signer set, read as every certificate's is.
    signer_bits = 0

    def proof_is_sound(self) -> bool:
        return self.votes == ()


@register(120)
@dataclass(frozen=True, repr=False)
class AggregateQuorumCertificate(Certificate, kind=VOTE):
    """A quorum of votes for one block in one epoch/phase.

    Certificates are ranked lexicographically by ``(epoch, height)``; the
    chain-selection and locking rules of every protocol here compare
    certificates by that rank.
    """

    protocol: str
    phase: int
    epoch: int
    height: int
    block_hash: Digest
    signer_bits: int
    agg_signature: bytes



def genesis_qc(protocol: str, block_hash: Digest) -> QuorumCertificate:
    """The distinguished empty certificate for the genesis block.

    It has rank ``(0, 0)``, below every real certificate, and is accepted
    without signatures by convention.
    """
    return QuorumCertificate(
        protocol=protocol, phase=0, epoch=0, height=0, block_hash=block_hash, votes=()
    )


def is_genesis_qc(qc: Certificate) -> bool:
    """True for the distinguished genesis certificate."""
    return qc.epoch == 0 and qc.height == 0 and qc.signer_count == 0


@register(16)
@dataclass(frozen=True, repr=False)
class Blame(SignedStatement, kind=BLAME):
    """A signed statement that epoch ``epoch``'s leader failed."""

    protocol: str
    epoch: int
    blamer: int
    signature: bytes


@register(121)
@dataclass(frozen=True, repr=False)
class AggregateBlameCertificate(Certificate, kind=BLAME):
    """f+1 blames proving epoch ``epoch`` must be abandoned."""

    protocol: str
    epoch: int
    signer_bits: int
    agg_signature: bytes


@register(18)
@dataclass(frozen=True, repr=False)
class CheckpointVote(SignedStatement, kind=CHECKPOINT):
    """A signed attestation that the ledger prefix up to ``height`` is
    committed with cumulative digest ``state_digest``.

    f+1 matching checkpoint votes prove at least one honest replica
    committed that prefix, which (by agreement) makes it safe for every
    replica — including a rejoining one — to adopt.
    """

    protocol: str
    height: int
    block_hash: Digest
    state_digest: Digest
    voter: int
    signature: bytes



@register(122)
@dataclass(frozen=True, repr=False)
class AggregateCheckpointCertificate(Certificate, kind=CHECKPOINT):
    """f+1 matching checkpoint votes: a transferable commit proof for a
    ledger prefix.

    Unlike a vote certificate (which in AlterBFT certifies but does not
    commit — commitment is a temporal 2Δ condition), a checkpoint
    certificate *is* a commit proof: f+1 signers include at least one
    honest replica that committed the prefix.
    """

    protocol: str
    height: int
    block_hash: Digest
    state_digest: Digest
    signer_bits: int
    agg_signature: bytes



@register(110)
@dataclass(frozen=True, repr=False)
class DeltaAdjust(SignedStatement, kind=DELTA_ADJUST):
    """A signed proposal to switch the synchrony bound to a new ladder rung.

    Attributes:
        protocol: short protocol name the adjustment belongs to.
        seq: number of adjustments the proposer has installed so far
            (replay protection; all correct replicas install in lockstep
            because installs are certificate-driven).
        rung: proposed ladder rung; effective Δ = ``delta * 2**rung``.
        proposer: replica id of the signer.
        signature: signature over the :data:`DELTA_ADJUST` signing bytes.
    """

    protocol: str
    seq: int
    rung: int
    proposer: int
    signature: bytes



@register(123)
@dataclass(frozen=True, repr=False)
class AggregateDeltaAdjustCertificate(Certificate, kind=DELTA_ADJUST):
    """f+1 matching Δ-adjustments: authority to install a new ladder rung.

    f+1 signers include at least one honest replica whose local delay
    measurements justified the switch, so Byzantine replicas alone can
    never move Δ.  Every correct replica installs the certified rung at
    its next epoch boundary, making the switch atomic across the cluster
    (epoch entry is itself synchronized within Δ by the blame machinery).
    """

    protocol: str
    seq: int
    rung: int
    signer_bits: int
    agg_signature: bytes
