"""``repro.obs.wire`` — wire-level bandwidth and message-size accounting.

The paper's thesis is that *message size* decides which synchrony bound a
message can rely on; this module makes the byte flows that argument rests
on measurable.  A :class:`WireAccountant` taps every *offer* — one message
from one sender to one destination or to the tuple a broadcast goes to —
in the simulated network (:mod:`repro.net.simnet`) and the real transport
(:mod:`repro.net.transport`).  The tap (:meth:`WireAccountant.account`,
once per ``send``/``broadcast``) increments one row of a tally keyed by
(sender, destinations, class, size) and the live totals; from those the
accountant attributes every copy's wire bytes along five axes:

* **link** — (sender, receiver) pair;
* **message class** — the codec-registered wire type;
* **size class** — small (≤ the hybrid model's δ threshold) vs large;
* **protocol phase** — propose / payload / dissemination / vote /
  epoch_change / repair / recovery / guard / measure / client;
* **block coordinates** — epoch and height, where the message names them.

Each axis *telescopes*: its per-key byte (and message) counters sum
exactly to the wire totals, so a drill-down never silently loses traffic
— :func:`validate_wire_snapshot` asserts this, and the test suite pins it
for seeded runs.  Per-class log₂ size histograms and egress queueing
(backpressure) samples complete the picture.  :meth:`WireAccountant.snapshot`
is the one export: ``python -m repro.obs record`` writes it into the run's
``trace.jsonl`` (:mod:`repro.obs.export`), and the ``*_rows`` views below
render it for the ``python -m repro.obs wire|bandwidth|chunks|queues``
drill-downs.

Every axis but the block coordinates is a pure function of the tally's
key, so it is computed when someone reads it, not once per copy: what a
message costs the send path does not grow with the number of axes or of
destinations.  The totals and the per-height/per-epoch counters depend on
the message itself and are kept live.

In the simulator the accountant is the run's **only message counter**:
the :class:`~repro.sim.tracing.Trace` carries it, the network built with
that trace taps it, and :meth:`~repro.sim.tracing.Trace.fingerprint`
reads its totals, per-sender bytes and per-class copies.  Accounting
increments private counters only — no RNG draws, no scheduler posts — so
it cannot change what a seeded run does, only count it.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from ..types import messages
from ..types.messages import WIRE_PHASE_NAMES
from .metrics import Histogram

#: Snapshot schema version (bumped on incompatible layout changes).
WIRE_SCHEMA = 1

#: Log₂ byte buckets for per-class message-size histograms: 16 B … 8 MiB.
#: Small consensus messages land in the first few buckets; payloads and
#: snapshots in the upper ones — the two-orders-of-magnitude gap the
#: hybrid model relies on shows up as two separated modes.
SIZE_HISTOGRAM_BOUNDS: Tuple[float, ...] = tuple(float(2 ** i) for i in range(4, 24))

#: Epoch/height value for messages that name no block coordinate
#: (probes, status requests, client traffic).  Keeping them in a bucket —
#: rather than dropping them — is what lets the per-height and per-epoch
#: axes telescope to the same total as every other axis.
UNATTRIBUTED = -1


def classify_phase(class_name: str) -> str:
    """Protocol phase of a wire message class: the ``WIRE_PHASE`` its
    class in :mod:`repro.types.messages` declares ("other" for a name
    that declares none)."""
    return getattr(getattr(messages, class_name, None), "WIRE_PHASE", "other")


def _build_ref_extractor(msg: object) -> Callable[[Any], Tuple[int, int]]:
    """Compile an (epoch, height) extractor for ``type(msg)``.

    Probed once per message class (the accountant memoizes the result),
    so the per-message cost is one dict hit plus attribute reads.  Order
    matters: a proposal's own header/block coordinates beat the view
    fields that may sit next to them.
    """
    unattributed = (UNATTRIBUTED, UNATTRIBUTED)
    if hasattr(msg, "header") and hasattr(getattr(msg, "header"), "epoch"):
        return lambda m: (m.header.epoch, m.header.height)
    if hasattr(msg, "block") and hasattr(getattr(msg, "block"), "epoch"):
        return lambda m: (m.block.epoch, m.block.height)
    if hasattr(msg, "vote"):
        vote = getattr(msg, "vote")
        if hasattr(vote, "epoch") and hasattr(vote, "height"):
            return lambda m: (m.vote.epoch, m.vote.height)
        if hasattr(vote, "height"):
            return lambda m: (UNATTRIBUTED, m.vote.height)
    if hasattr(msg, "blame") and hasattr(getattr(msg, "blame"), "epoch"):
        return lambda m: (m.blame.epoch, UNATTRIBUTED)
    if hasattr(msg, "epoch") and hasattr(msg, "height"):
        return lambda m: (m.epoch, m.height)
    if hasattr(msg, "new_epoch"):
        return lambda m: (m.new_epoch, UNATTRIBUTED)
    if hasattr(msg, "new_view"):
        return lambda m: (m.new_view, UNATTRIBUTED)
    if hasattr(msg, "view"):
        return lambda m: (m.view, UNATTRIBUTED)
    if hasattr(msg, "cert") and hasattr(getattr(msg, "cert"), "epoch"):
        return lambda m: (m.cert.epoch, UNATTRIBUTED)
    if hasattr(msg, "height"):
        return lambda m: (UNATTRIBUTED, m.height)
    return lambda m: unattributed


class QueueSample(NamedTuple):
    """One egress-queueing (backpressure) observation at a sender."""

    time: float
    node: int
    backlog: float  # seconds this message waited behind earlier egress
    queued_bytes: int  # wire size of the message that waited


#: The ``Counter`` axes :class:`WireAccountant` derives from its tally
#: when read (``size_hist``, a dict of histograms, is the one other view).
_COUNTER_VIEWS: Tuple[str, ...] = (
    "link_bytes",
    "link_msgs",
    "class_bytes",
    "class_msgs",
    "class_size_bytes",
    "sender_bytes",
    "sender_msgs",
    "receiver_bytes",
    "size_class_bytes",
    "size_class_msgs",
    "phase_bytes",
    "phase_msgs",
)


def _view(name: str) -> property:
    def read(self: "WireAccountant") -> Any:
        views = self._views
        if views is None:
            views = self._views = self._derive_views()
        return views[name]

    return property(read, doc=f"``{name}``, derived from the offer tally when read.")


class WireAccountant:
    """Multi-axis wire-byte accounting for one cluster run.

    Purely additive: :meth:`account` mutates private tallies only, so an
    attached accountant never perturbs simulation behavior (inertness).

    **Live** attributes, plain values updated by every offer:
    ``bytes_total``, ``msgs_total``, ``loopback_bytes``,
    ``loopback_msgs`` (integers, cheap to poll mid-run) and the two axes
    that depend on the message itself, ``height_bytes`` and
    ``epoch_bytes``.  Every other axis — ``link_*``, ``class_*``,
    ``class_size_bytes``, ``sender_*``, ``receiver_bytes``,
    ``size_class_*``, ``phase_*``, ``size_hist`` — is a **view**: a
    ``Counter`` (``size_hist``: class → :class:`Histogram`) rebuilt from
    the tally on the first read after any offer, and therefore
    correct whenever it is read.  A view is a fresh object; writing to
    one changes nothing.
    """

    def __init__(self, small_threshold: int) -> None:
        if small_threshold <= 0:
            raise ValueError("small_threshold must be positive")
        self.small_threshold = small_threshold
        self.bytes_total = 0
        self.msgs_total = 0
        self.loopback_bytes = 0
        self.loopback_msgs = 0
        self.height_bytes: TallyCounter = TallyCounter()
        self.epoch_bytes: TallyCounter = TallyCounter()
        self.queue_samples: List[QueueSample] = []
        #: (sender, destinations, class name, size) → offers.  One entry
        #: per distinct shape of offer: small classes repeat a handful of
        #: sizes per sender and a payload's size follows its transaction
        #: count, so this stays at most of the order of ``height_bytes``.
        self._tally: TallyCounter = TallyCounter()
        self._views: Optional[Dict[str, Any]] = None
        # Per-class (name, ref-extractor) memo: resolved on first sight.
        self._class_info: Dict[type, Tuple[str, Callable[[Any], Tuple[int, int]]]] = {}

    # -- the hot-path tap ---------------------------------------------------

    def account(self, src: int, dst: Union[int, Tuple[int, ...]], msg: object, size: int) -> None:
        """Charge one offer: ``msg`` from ``src`` to ``dst``, once.

        ``dst`` is one destination id or the tuple of (distinct) ids a
        broadcast goes to; either way this is one call, one tally
        increment and two per-message counters — the per-link, per-class,
        per-phase and size axes are derived from the tally when read.
        An offer to ``src`` itself is loopback, counted once.

        Called once per ``send``/``broadcast`` by the simulated network
        and the real transport.  The simulator charges every *offered*
        copy, loopback and fault-dropped ones included; a down sender's
        are not offered.
        """
        info = self._class_info.get(type(msg))
        if info is None:
            info = (type(msg).__name__, _build_ref_extractor(msg))
            self._class_info[type(msg)] = info
        cls, extract = info
        try:
            epoch, height = extract(msg)
        except AttributeError:  # Optional sub-field absent on this instance
            epoch = height = UNATTRIBUTED
        if type(dst) is not tuple:
            dst = (dst,)
        copies = len(dst)
        if not copies:
            return
        wire_bytes = size * copies
        self._tally[(src, dst, cls, size)] += 1
        self._views = None
        self.bytes_total += wire_bytes
        self.msgs_total += copies
        if src in dst:
            self.loopback_bytes += size
            self.loopback_msgs += 1
        self.height_bytes[height] += wire_bytes
        self.epoch_bytes[epoch] += wire_bytes

    def sample_queue(self, time: float, node: int, backlog: float, queued_bytes: int) -> None:
        """Record one egress-serialization wait at ``node``."""
        self.queue_samples.append(QueueSample(time, node, backlog, queued_bytes))

    # -- derived ------------------------------------------------------------

    def _derive_views(self) -> Dict[str, Any]:
        """Every view axis, from one pass over the tally."""
        size_hist: Dict[str, Histogram] = {}
        views: Dict[str, Any] = {name: TallyCounter() for name in _COUNTER_VIEWS}
        views["size_hist"] = size_hist
        link_bytes, link_msgs = views["link_bytes"], views["link_msgs"]
        receiver_bytes = views["receiver_bytes"]
        for (src, dsts, cls, size), offers in self._tally.items():
            copies = offers * len(dsts)
            wire_bytes = size * copies
            size_class = "small" if size <= self.small_threshold else "large"
            phase = classify_phase(cls)
            per_link = size * offers
            for dst in dsts:
                link_bytes[(src, dst)] += per_link
                link_msgs[(src, dst)] += offers
                receiver_bytes[dst] += per_link
            views["class_bytes"][cls] += wire_bytes
            views["class_msgs"][cls] += copies
            views["class_size_bytes"][(cls, size_class)] += wire_bytes
            views["sender_bytes"][src] += wire_bytes
            views["sender_msgs"][src] += copies
            views["size_class_bytes"][size_class] += wire_bytes
            views["size_class_msgs"][size_class] += copies
            views["phase_bytes"][phase] += wire_bytes
            views["phase_msgs"][phase] += copies
            hist = size_hist.get(cls)
            if hist is None:
                hist = size_hist[cls] = Histogram(SIZE_HISTOGRAM_BOUNDS)
            hist.observe(float(size), copies)
        return views

    link_bytes = _view("link_bytes")
    link_msgs = _view("link_msgs")
    class_bytes = _view("class_bytes")
    class_msgs = _view("class_msgs")
    #: (class, size_class) → bytes: the small/large split per class.
    class_size_bytes = _view("class_size_bytes")
    sender_bytes = _view("sender_bytes")
    sender_msgs = _view("sender_msgs")
    receiver_bytes = _view("receiver_bytes")
    size_class_bytes = _view("size_class_bytes")
    size_class_msgs = _view("size_class_msgs")
    phase_bytes = _view("phase_bytes")
    phase_msgs = _view("phase_msgs")
    size_hist = _view("size_hist")

    def leader_egress_share(self) -> float:
        """Busiest sender's share of all wire bytes (1/n ⇒ perfectly even).

        In a leader-based protocol the busiest sender is the (dominant)
        leader — this is the paper's leader-fan-out bottleneck as a
        single ratio, and the metric ROADMAP's dissemination work must
        move.
        """
        if self.bytes_total == 0:
            return 0.0
        return max(self.sender_bytes.values()) / self.bytes_total

    # -- exposure -----------------------------------------------------------

    def snapshot(self, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The full accounting as one JSON-serializable document."""
        queues_by_node: Dict[int, List[QueueSample]] = {}
        for sample in self.queue_samples:
            queues_by_node.setdefault(sample.node, []).append(sample)
        return {
            "schema": WIRE_SCHEMA,
            "small_threshold": self.small_threshold,
            "meta": dict(meta or {}),
            "totals": {
                "bytes": self.bytes_total,
                "msgs": self.msgs_total,
                "loopback_bytes": self.loopback_bytes,
                "loopback_msgs": self.loopback_msgs,
            },
            "leader_egress_share": self.leader_egress_share(),
            "links": [
                {
                    "src": src,
                    "dst": dst,
                    "bytes": self.link_bytes[(src, dst)],
                    "msgs": self.link_msgs[(src, dst)],
                }
                for src, dst in sorted(self.link_bytes)
            ],
            "classes": [
                {
                    "class": cls,
                    "phase": classify_phase(cls),
                    "bytes": self.class_bytes[cls],
                    "msgs": self.class_msgs[cls],
                    "small_bytes": self.class_size_bytes.get((cls, "small"), 0),
                    "large_bytes": self.class_size_bytes.get((cls, "large"), 0),
                    "hist": self.size_hist[cls].to_dict(),
                }
                for cls in sorted(self.class_bytes)
            ],
            "phases": [
                {
                    "phase": phase,
                    "bytes": self.phase_bytes[phase],
                    "msgs": self.phase_msgs[phase],
                }
                for phase in sorted(self.phase_bytes)
            ],
            "size_classes": [
                {
                    "size_class": size_class,
                    "bytes": self.size_class_bytes[size_class],
                    "msgs": self.size_class_msgs[size_class],
                }
                for size_class in sorted(self.size_class_bytes)
            ],
            "senders": [
                {
                    "node": node,
                    "bytes": self.sender_bytes[node],
                    "msgs": self.sender_msgs[node],
                }
                for node in sorted(self.sender_bytes)
            ],
            "receivers": [
                {"node": node, "bytes": self.receiver_bytes[node]}
                for node in sorted(self.receiver_bytes)
            ],
            "heights": [
                {"height": height, "bytes": self.height_bytes[height]}
                for height in sorted(self.height_bytes)
            ],
            "epochs": [
                {"epoch": epoch, "bytes": self.epoch_bytes[epoch]}
                for epoch in sorted(self.epoch_bytes)
            ],
            "queues": [
                {
                    "node": node,
                    "samples": len(samples),
                    "max_backlog_s": max(s.backlog for s in samples),
                    "mean_backlog_s": sum(s.backlog for s in samples) / len(samples),
                    "max_queued_bytes": max(s.queued_bytes for s in samples),
                    "queued_bytes": sum(s.queued_bytes for s in samples),
                }
                for node, samples in sorted(queues_by_node.items())
            ],
        }


# ---------------------------------------------------------------------------
# Snapshot validation (structure + the telescoping invariant)
# ---------------------------------------------------------------------------

#: (snapshot key, per-row byte field) for every axis that must telescope.
_TELESCOPING_AXES: Tuple[Tuple[str, str], ...] = (
    ("links", "bytes"),
    ("classes", "bytes"),
    ("phases", "bytes"),
    ("size_classes", "bytes"),
    ("senders", "bytes"),
    ("receivers", "bytes"),
    ("heights", "bytes"),
    ("epochs", "bytes"),
)

#: Axes whose per-row message counts must also telescope.
_MSG_AXES: Tuple[str, ...] = ("links", "classes", "phases", "size_classes", "senders")


def validate_wire_snapshot(snapshot: Dict[str, Any]) -> List[str]:
    """Structural and arithmetic checks; returns problem strings (empty = ok).

    The load-bearing check is the **telescoping invariant**: every
    attribution axis — links, classes, phases, size classes, senders,
    receivers, heights, epochs — must sum byte-exactly to the wire total.
    A drill-down that violates it is silently dropping or double-counting
    traffic.
    """
    problems: List[str] = []
    if not isinstance(snapshot, dict):
        return ["snapshot is not a JSON object"]
    if snapshot.get("schema") != WIRE_SCHEMA:
        problems.append(f"schema {snapshot.get('schema')!r} != {WIRE_SCHEMA}")
    totals = snapshot.get("totals")
    if not isinstance(totals, dict) or "bytes" not in totals or "msgs" not in totals:
        return problems + ["missing/invalid 'totals' (need bytes and msgs)"]
    total_bytes, total_msgs = totals["bytes"], totals["msgs"]
    if total_bytes < 0 or total_msgs < 0:
        problems.append("negative totals")
    if totals.get("loopback_bytes", 0) > total_bytes:
        problems.append("loopback_bytes exceeds bytes total")

    for key, field_name in _TELESCOPING_AXES:
        rows = snapshot.get(key)
        if not isinstance(rows, list):
            problems.append(f"missing/invalid axis {key!r}")
            continue
        axis_sum = sum(row.get(field_name, 0) for row in rows)
        if axis_sum != total_bytes:
            problems.append(
                f"telescoping violated on {key!r}: sum {axis_sum} != total {total_bytes}"
            )
    for key in _MSG_AXES:
        rows = snapshot.get(key)
        if not isinstance(rows, list):
            continue  # already reported above
        axis_sum = sum(row.get("msgs", 0) for row in rows)
        if axis_sum != total_msgs:
            problems.append(
                f"telescoping violated on {key!r} msgs: sum {axis_sum} != total {total_msgs}"
            )

    share = snapshot.get("leader_egress_share")
    if not isinstance(share, (int, float)) or not 0.0 <= share <= 1.0:
        problems.append(f"leader_egress_share {share!r} not in [0, 1]")
    for row in snapshot.get("classes", []):
        cls = row.get("class", "?")
        if row.get("small_bytes", 0) + row.get("large_bytes", 0) != row.get("bytes", 0):
            problems.append(f"class {cls}: small+large bytes != class bytes")
        hist = row.get("hist", {})
        if hist.get("count") != row.get("msgs"):
            problems.append(f"class {cls}: histogram count != message count")
    for row in snapshot.get("queues", []):
        if row.get("samples", 0) <= 0 or row.get("max_backlog_s", 0) < 0:
            problems.append(f"queue row for node {row.get('node')!r} inconsistent")
    return problems


# ---------------------------------------------------------------------------
# Report rows (rendered by the obs CLI)
# ---------------------------------------------------------------------------


def class_rows(snapshot: Dict[str, Any]) -> List[Dict[str, object]]:
    """Per-class bandwidth table rows, heaviest class first."""
    total = max(snapshot["totals"]["bytes"], 1)
    rows = []
    for row in sorted(snapshot["classes"], key=lambda r: -r["bytes"]):
        hist = row["hist"]
        rows.append(
            {
                "class": row["class"],
                "phase": row["phase"],
                "msgs": row["msgs"],
                "bytes": row["bytes"],
                "share_%": round(100.0 * row["bytes"] / total, 1),
                "small_B": row["small_bytes"],
                "large_B": row["large_bytes"],
                "mean_B": round(hist["mean"], 1),
                "max_B": int(hist["max"]),
            }
        )
    return rows


def phase_rows(snapshot: Dict[str, Any]) -> List[Dict[str, object]]:
    """Per-phase bandwidth rows in canonical phase order."""
    total = max(snapshot["totals"]["bytes"], 1)
    by_phase = {row["phase"]: row for row in snapshot["phases"]}
    rows = []
    for phase in WIRE_PHASE_NAMES:
        row = by_phase.get(phase)
        if row is None:
            continue
        rows.append(
            {
                "phase": phase,
                "msgs": row["msgs"],
                "bytes": row["bytes"],
                "share_%": round(100.0 * row["bytes"] / total, 1),
            }
        )
    return rows


def sender_rows(snapshot: Dict[str, Any]) -> List[Dict[str, object]]:
    """Per-node egress rows (the leader-fan-out evidence)."""
    total = max(snapshot["totals"]["bytes"], 1)
    return [
        {
            "node": row["node"],
            "msgs": row["msgs"],
            "egress_B": row["bytes"],
            "share_%": round(100.0 * row["bytes"] / total, 1),
        }
        for row in sorted(snapshot["senders"], key=lambda r: -r["bytes"])
    ]


def link_rows(snapshot: Dict[str, Any], top: int = 10) -> List[Dict[str, object]]:
    """The ``top`` heaviest directed links."""
    rows = sorted(snapshot["links"], key=lambda r: -r["bytes"])[:top]
    return [
        {
            "link": f"{row['src']}->{row['dst']}",
            "msgs": row["msgs"],
            "bytes": row["bytes"],
        }
        for row in rows
    ]


def chunk_rows(snapshot: Dict[str, Any]) -> List[Dict[str, object]]:
    """Dissemination drill-down: one row per chunk message class.

    ``vs_payload_%`` relates each class to the blob path it replaces —
    the sum over ``ChunkShareMsg`` + ``ChunkResponseMsg`` is the chunked
    equivalent of the ``payload`` phase, so comparing the two runs' rows
    shows directly where the leader's egress went.
    """
    total = max(snapshot["totals"]["bytes"], 1)
    payload_bytes = sum(
        row["bytes"] for row in snapshot["phases"] if row["phase"] == "payload"
    )
    rows = []
    for row in snapshot["classes"]:
        if row["phase"] != "dissemination":
            continue
        hist = row["hist"]
        rows.append(
            {
                "class": row["class"],
                "msgs": row["msgs"],
                "bytes": row["bytes"],
                "share_%": round(100.0 * row["bytes"] / total, 1),
                "vs_payload_%": round(100.0 * row["bytes"] / max(payload_bytes, 1), 1)
                if payload_bytes
                else None,
                "mean_B": round(hist["mean"], 1),
                "max_B": int(hist["max"]),
            }
        )
    return sorted(rows, key=lambda r: -int(r["bytes"]))  # type: ignore[call-overload]


def queue_rows(snapshot: Dict[str, Any]) -> List[Dict[str, object]]:
    """Per-node egress backpressure rows (empty = no queueing observed)."""
    return [
        {
            "node": row["node"],
            "samples": row["samples"],
            "max_backlog_ms": round(row["max_backlog_s"] * 1e3, 3),
            "mean_backlog_ms": round(row["mean_backlog_s"] * 1e3, 3),
            "queued_MB": round(row["queued_bytes"] / 1e6, 2),
        }
        for row in snapshot["queues"]
    ]
