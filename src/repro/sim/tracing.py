"""Lightweight simulation tracing and counters.

A :class:`Trace` collects structured events (message sends, commits, epoch
changes) and aggregate counters (bytes on the wire, message counts by
class).  Recording individual events can be disabled for large runs while
keeping counters, which cost almost nothing.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    time: float
    kind: str
    node: int
    detail: Tuple[Tuple[str, Any], ...]


class Trace:
    """Event log plus counters for one simulation run."""

    def __init__(self, record_events: bool = False) -> None:
        self.record_events = record_events
        self.events: List[TraceEvent] = []
        self.counters: Counter = Counter()
        self.bytes_sent_by_node: Counter = Counter()
        self.messages_by_type: Counter = Counter()
        #: (sender, message class) → bytes — the per-class refinement of
        #: ``bytes_sent_by_node``.  Deliberately NOT part of
        #: :meth:`fingerprint`: the golden fingerprints predate it, and
        #: it is fully derived from the same send stream the hashed
        #: counters already witness.
        self.bytes_by_node_class: Counter = Counter()

    def emit(self, time: float, kind: str, node: int, **detail: Any) -> None:
        """Record an event (no-op unless ``record_events`` is set)."""
        self.counters[kind] += 1
        if self.record_events:
            self.events.append(
                TraceEvent(time=time, kind=kind, node=node, detail=tuple(sorted(detail.items())))
            )

    def count_message(self, sender: int, type_name: str, size: int, copies: int = 1) -> None:
        """Account one wire message offered to ``copies`` (≥ 1) destinations."""
        wire_bytes = size * copies
        counters = self.counters
        counters["messages"] += copies
        counters["bytes"] += wire_bytes
        self.bytes_sent_by_node[sender] += wire_bytes
        self.messages_by_type[type_name] += copies
        self.bytes_by_node_class[(sender, type_name)] += wire_bytes

    def events_of(self, kind: str) -> List[TraceEvent]:
        """All recorded events of one kind, in time order."""
        return [e for e in self.events if e.kind == kind]

    def summary(self) -> Dict[str, Any]:
        """Aggregate view used in experiment reports."""
        by_node_class: Dict[int, Dict[str, int]] = {}
        for (sender, type_name), size in self.bytes_by_node_class.items():
            by_node_class.setdefault(sender, {})[type_name] = size
        return {
            "messages": self.counters.get("messages", 0),
            "bytes": self.counters.get("bytes", 0),
            "by_type": dict(self.messages_by_type),
            "bytes_sent_by_node": dict(self.bytes_sent_by_node),
            "bytes_by_node_class": by_node_class,
            "counters": dict(self.counters),
        }

    def merge(self, other: "Trace") -> "Trace":
        """Fold ``other``'s counters (and recorded events) into this trace.

        Multi-run aggregation: repetition sweeps merge their per-run
        traces into one before summarizing, so per-node byte totals and
        message-type mixes cover the whole sweep.  Returns ``self`` for
        chaining.
        """
        self.counters.update(other.counters)
        self.bytes_sent_by_node.update(other.bytes_sent_by_node)
        self.messages_by_type.update(other.messages_by_type)
        self.bytes_by_node_class.update(other.bytes_by_node_class)
        if self.record_events:
            self.events.extend(other.events)
        return self

    @classmethod
    def merged(cls, traces: "List[Trace]") -> "Trace":
        """A fresh trace aggregating every trace in ``traces``."""
        out = cls(record_events=any(t.record_events for t in traces))
        for trace in traces:
            out.merge(trace)
        return out

    def fingerprint(self, extra: Optional[bytes] = None) -> str:
        """Deterministic digest of every counter this trace accumulated.

        Two runs of the same seeded scenario must produce byte-identical
        fingerprints — the replay harness (:mod:`repro.check`) relies on
        this to prove a reproduced failure is the *same* failure.  ``extra``
        lets callers fold additional run state (e.g. ledger hashes) in.
        """
        hasher = hashlib.sha256()
        for counter in (self.counters, self.bytes_sent_by_node, self.messages_by_type):
            for key in sorted(counter, key=repr):
                hasher.update(f"{key!r}={counter[key]};".encode("utf-8"))
        if extra:
            hasher.update(extra)
        return hasher.hexdigest()
