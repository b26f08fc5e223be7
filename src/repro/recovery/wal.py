"""Write-ahead log for consensus-critical replica state.

A replica journals three kinds of records *before* acting on them:

* its own :class:`~repro.types.certificates.Vote` objects (appended
  before the vote is broadcast — so a restart can never double-vote),
* every :class:`~repro.types.certificates.QuorumCertificate` that
  improved its ``high_qc`` (so a restart never regresses below its
  certified state), and
* :class:`WalEpochRecord` entries marking each epoch entry (so a
  restart resumes in, not below, its last epoch).

The log belongs to the replica's :class:`~repro.recovery.RecoveryManager`,
which the replica feeds through its ``journal`` hook.  Two
implementations share the interface: :class:`MemoryWal` for the
deterministic simulator (the Python object simply survives the simulated
crash, exactly as an fsynced file survives a process crash) and
:class:`FileWal` for the asyncio transport, which appends
length-prefixed codec frames and flushes per record.  Replay tolerates a
truncated final frame — the torn-write case — by stopping at it.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import IO, List, Optional

from ..codec import CodecError, decode, encode, register


@register(39)
@dataclass(frozen=True)
class WalEpochRecord:
    """Journal entry: the replica entered ``epoch`` with entry rank
    ``(rank_epoch, rank_height)`` (its ``high_qc`` rank at entry)."""

    epoch: int
    rank_epoch: int
    rank_height: int


class MemoryWal:
    """In-memory WAL for the simulator.

    Deterministic and allocation-cheap; the list plays the role of the
    durable medium because a simulated crash never destroys the Python
    object — the recovery manager keeps holding it across its ``restart``.
    """

    def __init__(self) -> None:
        self._records: List[object] = []

    def append(self, record: object) -> None:
        self._records.append(record)

    def replay(self) -> List[object]:
        """All records, in append order."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)


_LEN = struct.Struct(">I")


class FileWal:
    """File-backed WAL: ``[u32 length][codec frame]`` per record.

    Every append is flushed (and fsynced when the file supports it)
    before returning, so a record the caller acted on is on disk.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh: Optional[IO[bytes]] = open(path, "ab")

    def append(self, record: object) -> None:
        assert self._fh is not None, "WAL is closed"
        frame = encode(record)
        self._fh.write(_LEN.pack(len(frame)))
        self._fh.write(frame)
        self._fh.flush()
        try:
            os.fsync(self._fh.fileno())
        except OSError:  # pragma: no cover - non-fsyncable targets
            pass

    def replay(self) -> List[object]:
        """Decode all complete records; stop at a torn final frame."""
        records: List[object] = []
        with open(self.path, "rb") as fh:
            data = fh.read()
        offset = 0
        while offset + _LEN.size <= len(data):
            (length,) = _LEN.unpack_from(data, offset)
            start = offset + _LEN.size
            if start + length > len(data):
                break  # torn final write: the record never took effect
            try:
                records.append(decode(data[start : start + length]))
            except CodecError:
                break  # corrupt tail — everything before it is intact
            offset = start + length
        return records

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __len__(self) -> int:
        return len(self.replay())
