"""The one quorum collector: signed statements in, each certificate out once.

Every certificate here — a vote QC, a blame certificate, a checkpoint
certificate, a Δ-adjust certificate — is a quorum of signatures over one
:class:`~repro.types.certificates.Statement`.  A :class:`QuorumCollector`
holds one kind of statement for one replica, and it is the only code that
checks a quorum member, assembles a certificate, or checks a received
one (DESIGN.md → "Quorums").  What differs between kinds — the vote
horizon, the guard's seq/rung filter, recovery's pruning — stays with the
collector's owner.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..errors import VerificationError
from ..types.certificates import Certificate, SignedStatement, Statement, signing_bytes


class QuorumCollector:
    """Signed statements of one ``kind``, bucketed by the whole statement
    until its certificate forms.

    ``replica`` supplies the protocol name, signer, validator set and
    event sink.  With ``batch`` (votes under ``crypto_batch``) signatures
    are not checked on arrival but together, when a bucket reaches its
    quorum.
    """

    def __init__(self, replica, kind: Statement, batch: bool = False) -> None:
        self.replica = replica
        self.kind = kind
        self.batch = batch
        #: statement → signer id → signed statement, until its certificate.
        self.pending: Dict[Tuple, Dict[int, SignedStatement]] = {}
        #: statement → its certificate: a statement certifies exactly once.
        self.certified: Dict[Tuple, Certificate] = {}
        #: Signers batch bisection caught with a bad signature.  What they
        #: send later is dropped unread, so one Byzantine signer cannot
        #: re-trigger the bisection on every flood.
        self.excluded: Set[int] = set()

    def check(self, src: int, signed: object) -> None:
        """Refuse ``signed`` unless it is well-formed, for this protocol,
        signed by a member, sent by that member and, unless batched, its
        signature verifies.

        No statement is ever relayed, so one that ``src`` sends in another
        replica's name is refused before its signature is read: a batched
        forgery could otherwise get the named signer excluded.
        """
        kind = self.kind.domain
        if not self.kind.is_signed(signed):
            raise VerificationError(f"not a well-formed {kind}")
        replica = self.replica
        if signed.protocol != replica.protocol_name:
            raise VerificationError(f"{kind} for a different protocol")
        signer_id = signed.proof[0]
        if not replica.validators.is_valid_replica(signer_id):
            raise VerificationError(f"{kind} from unknown replica {signer_id}")
        if signer_id != src:
            raise VerificationError(f"{kind} of replica {signer_id} sent by {src}")
        if not self.batch and not signed.verify(replica.signer):
            raise VerificationError(f"bad {kind} signature from {signer_id}")

    def add(self, signed: SignedStatement) -> Optional[Certificate]:
        """Count a checked statement; return its certificate the moment a
        quorum of distinct signers holds the statement, and never again.

        The bucket goes with its certificate; a batched bucket whose check
        fails loses its bad signers and waits for honest ones.
        """
        statement = signed.statement
        signer_id = signed.proof[0]
        if statement in self.certified or signer_id in self.excluded:
            return None
        bucket = self.pending.setdefault(statement, {})
        if signer_id in bucket:
            return None
        bucket[signer_id] = signed
        if len(bucket) < self.replica.validators.quorum:
            return None
        if self.batch and not self._batch_check(signed, bucket):
            return None
        cert = Certificate.assemble(bucket.values(), self.replica.signer)
        self.certified[statement] = cert
        del self.pending[statement]
        return cert

    def _batch_check(self, signed: SignedStatement, bucket: Dict[int, SignedStatement]) -> bool:
        """Verify a full bucket in one scheme-level batch — one
        multi-exponentiation under schnorr instead of a scalar pair per
        signature.  A failing batch is bisected to the exact bad
        signatures, whose signers are excised, excluded and reported.
        True when the bucket still holds a quorum."""
        signer = self.replica.signer
        domain, message = self.kind.domain, signing_bytes(*signed.statement)
        pairs = [s.proof for s in bucket.values()]
        if signer.batch_verify_digest(domain, message, pairs):
            return True
        for index in signer.find_invalid_digest(domain, message, pairs):
            voter = pairs[index][0]
            del bucket[voter]
            self.excluded.add(voter)
            self.replica.event(
                "bad_vote_attributed", voter=voter, epoch=signed.epoch, phase=signed.phase
            )
        return len(bucket) >= self.replica.validators.quorum

    def certifies(self, cert: object) -> bool:
        """Whether ``cert`` is a sound certificate of this kind and
        protocol that a quorum of members signed: the one check of a
        received certificate."""
        replica = self.replica
        return (
            self.kind.is_certificate(cert)
            and cert.protocol == replica.protocol_name
            and cert.verify(replica.signer, replica.validators)
        )

    def release(self, height: int) -> None:
        """Forget every statement at or below ``height``, pending or
        certified (for kinds with a height)."""
        at = self.kind.fields.index("height")
        self.pending = {s: bucket for s, bucket in self.pending.items() if s[at] > height}
        self.certified = {s: cert for s, cert in self.certified.items() if s[at] > height}
