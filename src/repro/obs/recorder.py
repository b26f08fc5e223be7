"""The span recorder: what the hot path writes observability data into.

Design constraints (see DESIGN.md "Observability"):

* **Inert.**  Recording must not perturb the simulation: no RNG draws,
  no scheduler posts, no writes to the fingerprint-bearing
  :class:`~repro.sim.tracing.Trace` counters.  The recorder only appends
  to Python lists.
* **Free when disabled.**  A replica reports each occurrence with one
  call (``BaseReplica.event`` counts and records, ``BaseReplica.mark``
  only records); both test the recorder attribute, ``None`` by default,
  so a run without observability builds no :class:`ObsEvent`.
* **Cheap when enabled.**  One small object append per mark; span
  assembly, histogram filling, and export all happen *after* the run
  (:mod:`repro.obs.analyze`).

The data model is deliberately flat: replicas record **marks** (a
timestamped milestone for a block, e.g. ``vote``) and **events**
(epoch-level incidents, e.g. ``epoch_change``), and the network records
**message samples** (class, size, delay).  Spans — the propose →
header → payload → vote → certify → 2Δ-wait → commit phases — are
derived from consecutive marks at analysis time, which keeps the
recording path branch-free and lets one recording serve every analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional

#: Block-lifecycle milestone marks, in canonical pipeline order.  The
#: interval between two consecutive milestones is one *phase*; analysis
#: clamps out-of-order arrivals (e.g. a payload landing before its
#: header) so per-phase durations always telescope to commit − propose.
#: A chained (pipelined) leader stamps each MARK_PROPOSE with an
#: ``inflight`` attr — the size of its in-flight window *including* the
#: new block — which is what ``span_overlap_rows`` cross-checks against
#: the overlap it measures from the spans themselves.
MARK_PROPOSE = "propose"
MARK_HEADER = "header_deliver"
MARK_PAYLOAD = "payload_deliver"
MARK_VOTE = "vote"
MARK_CERTIFY = "certify"
MARK_WINDOW = "window_clean"
MARK_COMMIT = "commit"

BLOCK_MILESTONES = (
    MARK_PROPOSE,
    MARK_HEADER,
    MARK_PAYLOAD,
    MARK_VOTE,
    MARK_CERTIFY,
    MARK_WINDOW,
    MARK_COMMIT,
)

#: The kinds a replica records without counting (``BaseReplica.mark``):
#: no fingerprint has ever counted them.  Every other kind a replica
#: records it also counts, under the same name (``BaseReplica.event``);
#: PBFT alone also marks its prepare vote.
RECORDED_ONLY = (MARK_HEADER, MARK_PAYLOAD, MARK_CERTIFY, MARK_WINDOW, "blame", "epoch_enter")

#: Recovery lifecycle event kinds, in canonical order (repro.recovery).
EVENT_RECOVERY_DOWN = "recovery_down"
EVENT_RECOVERY_RESTART = "recovery_restart"
EVENT_RECOVERY_STATUS = "recovery_status"
EVENT_RECOVERY_SNAPSHOT = "recovery_snapshot"
EVENT_RECOVERY_REPLAY = "recovery_replay"
EVENT_RECOVERY_CAUGHT_UP = "recovery_caught_up"

RECOVERY_MILESTONES = (
    EVENT_RECOVERY_DOWN,
    EVENT_RECOVERY_RESTART,
    EVENT_RECOVERY_STATUS,
    EVENT_RECOVERY_SNAPSHOT,
    EVENT_RECOVERY_REPLAY,
    EVENT_RECOVERY_CAUGHT_UP,
)

#: Synchrony-guard lifecycle event kinds, in canonical order (repro.guard).
EVENT_GUARD_VIOLATION = "delta_violation"
EVENT_GUARD_SUSPECTED = "guard_suspected"
EVENT_GUARD_ADJUST_PROPOSED = "delta_adjust_proposed"
EVENT_GUARD_ADJUST_CERTIFIED = "delta_adjust_certified"
EVENT_GUARD_DELTA_INSTALLED = "delta_installed"
EVENT_GUARD_AT_RISK_COMMIT = "commit_at_risk"
EVENT_GUARD_STABILIZED = "guard_stabilized"

GUARD_MILESTONES = (
    EVENT_GUARD_VIOLATION,
    EVENT_GUARD_SUSPECTED,
    EVENT_GUARD_ADJUST_PROPOSED,
    EVENT_GUARD_ADJUST_CERTIFIED,
    EVENT_GUARD_DELTA_INSTALLED,
    EVENT_GUARD_AT_RISK_COMMIT,
    EVENT_GUARD_STABILIZED,
)


@dataclass(frozen=True)
class ObsEvent:
    """One recorded mark or event.

    ``block`` is the block hash for lifecycle marks and ``None`` for
    epoch-level events; ``attrs`` carries auxiliary detail (epoch,
    height, transaction count, ...).
    """

    time: float
    kind: str
    node: int
    block: Optional[bytes] = None
    attrs: Dict[str, Any] = field(default_factory=dict)


class MsgSample(NamedTuple):
    """One delivered message observed at the network layer."""

    time: float
    src: int
    dst: int
    cls: str
    size: int
    latency: float


class SpanRecorder:
    """Append-only sink for marks, events, and message samples."""

    def __init__(self) -> None:
        self.events: List[ObsEvent] = []
        self.messages: List[MsgSample] = []

    def mark(
        self,
        time: float,
        kind: str,
        node: int,
        block: Optional[bytes],
        **attrs: Any,
    ) -> None:
        """Record a block-lifecycle milestone (or, without ``block``, an event)."""
        self.events.append(ObsEvent(time=time, kind=kind, node=node, block=block, attrs=attrs))

    def message(
        self, time: float, src: int, dst: int, cls: str, size: int, latency: float
    ) -> None:
        """Record one delivered message with its end-to-end latency."""
        self.messages.append(MsgSample(time, src, dst, cls, size, latency))

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.events) + len(self.messages)
