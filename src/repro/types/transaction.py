"""Client transactions.

A transaction is an opaque payload stamped with the issuing client's id, a
per-client sequence number, and the submission timestamp.  The timestamp
is what the experiment harness uses to measure end-to-end commit latency;
consensus itself never interprets it.

A transaction crosses every layer — socket, mempool, block, Merkle tree,
payload message, ledger — and all of them want its encoding (to ship,
hash or measure) while only the mempool and the client-facing edge want a
field.  So an instance *is* its canonical encoding, ``wire``, plus the two
fields every replica looks at, ``client_id`` and ``seq``; the codec calls
that a self-encoded class (see :func:`repro.codec.register`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..codec import register
from ..codec.core import encode_fields, field_of
from ..crypto.hashing import Digest, domain_hash

_set = object.__setattr__


@register(10)
@dataclass(frozen=True, init=False, eq=False, repr=False)
class Transaction:
    """One client transaction.

    Attributes:
        client_id: issuing client identity.
        seq: per-client sequence number (client_id, seq) is unique.
        submitted_at: client-side submission time, seconds.
        payload: opaque application bytes (e.g. a serialized KV command).
        wire: the canonical encoding, ``encode(tx)``.

    Still a frozen dataclass to look at — ``fields()``, ``replace()``, the
    four-argument constructor — but what it stores is ``wire``, ``client_id``
    and ``seq``.  ``submitted_at`` and ``payload`` are read out of ``wire``
    when asked for (``payload`` is a fresh copy each time).  Equality and
    hash are those of ``wire``, which is equality of the fields because the
    encoding is canonical; the visible differences from comparing fields are
    on ``submitted_at``: the same NaN is equal to itself, ``0.0`` and ``-0.0``
    differ.
    """

    __slots__ = ("wire", "client_id", "seq")

    client_id: int
    seq: int
    submitted_at: float
    payload: bytes

    def __init__(self, client_id: int, seq: int, submitted_at: float, payload: bytes) -> None:
        # encode_fields refuses anything but exact int, int, float, bytes.
        _set(self, "wire", encode_fields(Transaction, client_id, seq, submitted_at, payload))
        _set(self, "client_id", client_id)
        _set(self, "seq", seq)

    @classmethod
    def from_wire(cls, wire: bytes, client_id: int, seq: int) -> "Transaction":
        """The transaction whose encoding is ``wire`` (codec contract).

        ``wire`` is trusted: the decoder has checked it, byte for byte, and
        nothing checks it again.  Called once per transaction a replica
        receives, so it fills the slots through their descriptors, bound
        below, rather than by name.
        """
        tx = _new(cls)
        _set_wire(tx, wire)
        _set_client_id(tx, client_id)
        _set_seq(tx, seq)
        return tx

    @property
    def submitted_at(self) -> float:  # type: ignore[no-redef]
        return field_of(self.wire, 2)

    @property
    def payload(self) -> bytes:  # type: ignore[no-redef]
        return field_of(self.wire, 3)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Transaction:
            return NotImplemented
        return self.wire == other.wire

    def __hash__(self) -> int:
        return hash(self.wire)

    def __reduce__(self):  # copy/pickle: frozen slots cannot be set from outside
        return Transaction.from_wire, (self.wire, self.client_id, self.seq)

    @property
    def tx_id(self) -> Digest:
        """Content digest identifying this transaction."""
        return domain_hash("tx", self.wire)

    @property
    def size(self) -> int:
        """Wire size, bytes."""
        return len(self.wire)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tx(client={self.client_id}, seq={self.seq}, {len(self.payload)}B)"


_new = object.__new__
_set_wire = Transaction.__dict__["wire"].__set__
_set_client_id = Transaction.__dict__["client_id"].__set__
_set_seq = Transaction.__dict__["seq"].__set__


def make_transaction(client_id: int, seq: int, now: float, payload_size: int) -> Transaction:
    """Build a synthetic transaction with a deterministic filler payload."""
    filler = (client_id % 251).to_bytes(1, "big") * max(payload_size, 1)
    return Transaction(client_id=client_id, seq=seq, submitted_at=now, payload=filler)
