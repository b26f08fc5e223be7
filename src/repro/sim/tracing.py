"""Event-kind counters and the run fingerprint.

A :class:`Trace` counts what protocol code and the network emit, by kind
(epoch changes, dropped forgeries, partitioned copies, ...).  What goes
on the wire is counted once, by the run's
:class:`~repro.obs.wire.WireAccountant`: the trace carries it, the
network it is handed to taps it, and :meth:`Trace.fingerprint` reads the
message counters from it.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Optional

from ..config import SMALL_MESSAGE_THRESHOLD
from ..obs.wire import WireAccountant


class Trace:
    """Event-kind counts plus the wire accountant of one simulation run."""

    def __init__(self, wire: Optional[WireAccountant] = None) -> None:
        #: The run's one message counter; a network built with this trace
        #: taps it once per offer.
        self.wire = wire if wire is not None else WireAccountant(SMALL_MESSAGE_THRESHOLD)
        self.counters: Counter = Counter()

    def emit(self, kind: str) -> None:
        """Count one event of ``kind``."""
        self.counters[kind] += 1

    def fingerprint(self, extra: Optional[bytes] = None) -> str:
        """Deterministic digest of the event counts and the wire tally.

        Two runs of the same seeded scenario must produce byte-identical
        fingerprints — the replay harness (:mod:`repro.check`) relies on
        this to prove a reproduced failure is the *same* failure.  ``extra``
        lets callers fold additional run state (e.g. ledger hashes) in.

        The digest hashes the event counts with the offered copies and
        their bytes under the keys ``messages`` and ``bytes`` (present once
        anything was offered), then bytes per sender, then copies per
        message class — the layout the golden fingerprints were pinned in.
        """
        wire = self.wire
        counts = Counter(self.counters)
        if wire.msgs_total:
            counts["messages"] = wire.msgs_total
            counts["bytes"] = wire.bytes_total
        hasher = hashlib.sha256()
        for counter in (counts, wire.sender_bytes, wire.class_msgs):
            for key in sorted(counter, key=repr):
                hasher.update(f"{key!r}={counter[key]};".encode("utf-8"))
        if extra:
            hasher.update(extra)
        return hasher.hexdigest()
