"""Turning raw recordings into answers: "why was this block slow?"

The recorder stores flat milestone marks; this module assembles them
into per-block **lifecycles** and derives:

* the per-block **phase breakdown** — propose → header → payload → vote
  → certify → 2Δ-wait → commit, measured at the replica that committed
  the block first (propose is always the proposer's clock — the same
  convention :class:`~repro.runner.metrics.MetricsCollector` uses for
  block latency, so the phase sum equals the reported commit latency);
* per-phase **statistics** over those rows, with exact percentiles;
* the **epoch-change timeline** with the blames/equivocations that
  triggered each change;
* the **recovery timeline** — per-replica crash/restart/catchup
  milestones with downtime and time-to-catchup durations;
* the **guard timeline** — the Δ-drift story: violations observed,
  suspicion, Δ adjustments proposed/certified/installed, and at-risk
  commit runs (see :mod:`repro.guard`);
* **straggler detection** — replicas whose delivery or commit lag sits
  far above the cluster median;
* **Δ-headroom** — observed small-message delay vs the configured bound.

Phase durations use *clamped* milestones: each milestone time is pulled
up to the running maximum of its predecessors, so a payload that arrived
before its header contributes a zero-width payload phase instead of a
negative one, and the phase durations always telescope exactly to
``commit − propose``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .metrics import DEFAULT_LATENCY_BUCKETS, Histogram
from .recorder import (
    BLOCK_MILESTONES,
    EVENT_GUARD_AT_RISK_COMMIT,
    EVENT_GUARD_VIOLATION,
    EVENT_RECOVERY_CAUGHT_UP,
    EVENT_RECOVERY_DOWN,
    EVENT_RECOVERY_RESTART,
    GUARD_MILESTONES,
    MARK_CERTIFY,
    MARK_COMMIT,
    MARK_PROPOSE,
    MsgSample,
    ObsEvent,
    RECOVERY_MILESTONES,
    SpanRecorder,
)

#: Phase names, one per interval between consecutive milestones.
PHASE_NAMES: Tuple[str, ...] = (
    "header",  # propose → header_deliver
    "payload",  # header_deliver → payload_deliver
    "vote",  # payload_deliver → vote
    "certify",  # vote → certify (quorum certificate formed)
    "2d_wait",  # certify → window_clean (the 2Δ equivocation window)
    "commit",  # window_clean → commit
)


@dataclass
class BlockLifecycle:
    """Everything recorded about one block, across all replicas."""

    block: bytes
    height: Optional[int] = None
    epoch: Optional[int] = None
    proposer: Optional[int] = None
    propose_time: Optional[float] = None
    #: node → milestone kind → first time that node recorded it.
    marks: Dict[int, Dict[str, float]] = field(default_factory=dict)

    @property
    def hex(self) -> str:
        return self.block.hex()

    def commit_times(self) -> Dict[int, float]:
        return {
            node: kinds[MARK_COMMIT]
            for node, kinds in self.marks.items()
            if MARK_COMMIT in kinds
        }

    def first_committer(self) -> Optional[Tuple[int, float]]:
        commits = self.commit_times()
        if not commits:
            return None
        node = min(commits, key=lambda n: (commits[n], n))
        return node, commits[node]

    def milestones_at(self, node: int) -> Dict[str, float]:
        """Milestone times as observed by ``node`` (propose: proposer clock)."""
        times = dict(self.marks.get(node, {}))
        if self.propose_time is not None:
            times[MARK_PROPOSE] = self.propose_time
        return times


def phase_durations(milestones: Dict[str, float]) -> Optional[Dict[str, float]]:
    """Clamped per-phase durations; None without propose+commit anchors.

    Missing intermediate milestones collapse to zero-width phases (their
    time is carried forward), and a milestone recorded *after* the commit
    (e.g. a PBFT prepare certificate landing via loopback just after an
    orphan commit certificate already executed the block) is capped at
    the commit anchor — so the durations always sum exactly to
    ``commit − propose``.
    """
    if MARK_PROPOSE not in milestones or MARK_COMMIT not in milestones:
        return None
    commit_t = milestones[MARK_COMMIT]
    durations: Dict[str, float] = {}
    clamped = milestones[MARK_PROPOSE]
    for milestone, phase in zip(BLOCK_MILESTONES[1:], PHASE_NAMES):
        t = max(min(milestones.get(milestone, clamped), commit_t), clamped)
        durations[phase] = t - clamped
        clamped = t
    return durations


def assemble_lifecycles(events: Iterable[ObsEvent]) -> Dict[bytes, BlockLifecycle]:
    """Group lifecycle marks by block; first mark per (node, kind) wins."""
    blocks: Dict[bytes, BlockLifecycle] = {}
    for event in events:
        if event.block is None:
            continue
        life = blocks.get(event.block)
        if life is None:
            life = blocks[event.block] = BlockLifecycle(block=event.block)
        if life.height is None and "height" in event.attrs:
            life.height = event.attrs["height"]
        if life.epoch is None and "epoch" in event.attrs:
            life.epoch = event.attrs["epoch"]
        if event.kind == MARK_PROPOSE:
            if life.propose_time is None or event.time < life.propose_time:
                life.propose_time = event.time
                life.proposer = event.node
        node_marks = life.marks.setdefault(event.node, {})
        node_marks.setdefault(event.kind, event.time)
    return blocks


# ---------------------------------------------------------------------------
# Phase breakdown
# ---------------------------------------------------------------------------


def block_phase_rows(lifecycles: Dict[bytes, BlockLifecycle]) -> List[Dict[str, object]]:
    """Per-block phase breakdown at the first committer, in commit order."""
    rows: List[Dict[str, object]] = []
    order = sorted(
        (life for life in lifecycles.values() if life.first_committer() is not None),
        key=lambda life: life.first_committer()[1],
    )
    for life in order:
        node, committed = life.first_committer()
        milestones = life.milestones_at(node)
        durations = phase_durations(milestones)
        if durations is None:
            continue
        row: Dict[str, object] = {
            "block": life.hex[:12],
            "height": life.height,
            "epoch": life.epoch,
            "committer": node,
            "commit_t": round(committed, 6),
        }
        for phase in PHASE_NAMES:
            row[f"{phase}_ms"] = durations[phase] * 1e3
        row["total_ms"] = sum(durations.values()) * 1e3
        row["e2e_ms"] = (committed - life.propose_time) * 1e3
        rows.append(row)
    return rows


def phase_summary_rows(block_rows: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Per-phase statistics over :func:`block_phase_rows`' rows, with exact
    percentiles of the per-block durations."""
    # Not at module level: the measure package imports the network, which
    # imports this package.
    from ..measure.stats import mean, percentile

    rows = []
    for phase in PHASE_NAMES + ("e2e",):
        samples = [row[f"{phase}_ms"] for row in block_rows]
        if not samples:
            continue
        rows.append(
            {
                "phase": phase,
                "count": len(samples),
                "mean_ms": mean(samples),
                "p50_ms": percentile(samples, 50),
                "p99_ms": percentile(samples, 99),
                "max_ms": max(samples),
                "share_%": 0.0,  # filled below
            }
        )
    e2e_total = next((r["mean_ms"] * r["count"] for r in rows if r["phase"] == "e2e"), 0.0)
    for row in rows:
        if row["phase"] != "e2e" and e2e_total > 0:
            row["share_%"] = 100.0 * row["mean_ms"] * row["count"] / e2e_total
        elif row["phase"] == "e2e":
            row["share_%"] = 100.0
    return rows


# ---------------------------------------------------------------------------
# Epoch timeline
# ---------------------------------------------------------------------------


def epoch_timeline(events: Iterable[ObsEvent]) -> List[Dict[str, object]]:
    """Epoch-change forensics: what ended each epoch, and when.

    One row per epoch that saw any epoch-level activity: blame senders,
    equivocation sightings, the first blame-certificate time, and when
    replicas entered the successor epoch.
    """
    epochs: Dict[int, Dict[str, Any]] = {}

    def entry(epoch: int) -> Dict[str, Any]:
        return epochs.setdefault(
            epoch,
            {
                "epoch": epoch,
                "timeouts": set(),
                "blamers": set(),
                "equivocation_seen_by": set(),
                "changed_at": None,
                "entered_at": None,
            },
        )

    for event in events:
        epoch = event.attrs.get("epoch")
        if epoch is None:
            continue
        if event.kind in ("epoch_timeout", "view_timeout"):
            entry(epoch)["timeouts"].add(event.node)
        elif event.kind == "blame":
            entry(epoch)["blamers"].add(event.node)
        elif event.kind in ("equivocation_detected", "equivocation_learned"):
            entry(epoch)["equivocation_seen_by"].add(event.node)
        elif event.kind == "epoch_change":
            e = entry(epoch)
            if e["changed_at"] is None or event.time < e["changed_at"]:
                e["changed_at"] = event.time
        elif event.kind == "epoch_enter":
            # Recorded against the epoch being *entered*; attribute the
            # enter time to the epoch that just ended.
            e = entry(epoch - 1)
            if e["entered_at"] is None or event.time < e["entered_at"]:
                e["entered_at"] = event.time

    rows = []
    for epoch in sorted(epochs):
        e = epochs[epoch]
        if not (e["blamers"] or e["timeouts"] or e["equivocation_seen_by"] or e["changed_at"]):
            continue
        cause = "equivocation" if e["equivocation_seen_by"] else (
            "timeout" if e["timeouts"] else "unknown"
        )
        rows.append(
            {
                "epoch": epoch,
                "cause": cause,
                "blamers": ",".join(str(n) for n in sorted(e["blamers"])) or "-",
                "timeouts": len(e["timeouts"]),
                "changed_at": round(e["changed_at"], 6) if e["changed_at"] is not None else "-",
                "next_entered_at": (
                    round(e["entered_at"], 6) if e["entered_at"] is not None else "-"
                ),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Recovery timeline
# ---------------------------------------------------------------------------


def recovery_timeline(events: Iterable[ObsEvent]) -> List[Dict[str, object]]:
    """Crash-recovery forensics: one row per replica that went down.

    Orders each replica's recovery lifecycle events
    (:data:`~repro.obs.recorder.RECOVERY_MILESTONES`) and derives the two
    durations operators care about: *downtime* (crash → restart) and
    *catchup* (restart → caught up, i.e. how long state transfer plus WAL
    replay took).  A replica with a restart but no ``caught_up`` time
    never finished catchup — the stall signature.
    """
    per_node: Dict[int, Dict[str, Any]] = {}
    for event in events:
        if event.kind not in RECOVERY_MILESTONES:
            continue
        node = per_node.setdefault(event.node, {"times": {}, "attrs": {}})
        times = node["times"]
        if event.kind not in times or event.time < times[event.kind]:
            times[event.kind] = event.time
        node["attrs"].update(event.attrs)

    rows = []
    for node in sorted(per_node):
        times = per_node[node]["times"]
        attrs = per_node[node]["attrs"]
        row: Dict[str, object] = {"replica": node}
        for kind in RECOVERY_MILESTONES:
            row[kind] = round(times[kind], 6) if kind in times else "-"
        down = times.get(EVENT_RECOVERY_DOWN)
        restart = times.get(EVENT_RECOVERY_RESTART)
        caught = times.get(EVENT_RECOVERY_CAUGHT_UP)
        row["downtime_s"] = (
            round(restart - down, 6) if down is not None and restart is not None else "-"
        )
        row["catchup_s"] = (
            round(caught - restart, 6)
            if restart is not None and caught is not None
            else "-"
        )
        row["wal_records"] = attrs.get("wal_records", "-")
        row["target_height"] = attrs.get("target_height", "-")
        row["caught_up"] = caught is not None or restart is None
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Guard timeline
# ---------------------------------------------------------------------------


def guard_timeline(events: Iterable[ObsEvent]) -> List[Dict[str, object]]:
    """Synchrony-guard forensics: the Δ-drift story of one run.

    One row per guard milestone in time order — violations observed,
    suspicion raised/cleared, Δ adjustments proposed, certified, and
    installed — with two compressions so a sustained violation does not
    drown the story: consecutive *violations* at one replica collapse
    into a single row carrying a count and the worst latency, and
    consecutive *at-risk commits* at one replica collapse into a row
    with a count and height range.
    """
    rows: List[Dict[str, object]] = []

    def detail_of(event: ObsEvent) -> str:
        a = event.attrs
        if event.kind == EVENT_GUARD_VIOLATION:
            return (
                f"src={a.get('src')} {a.get('msg_type', '?')} "
                f"{a.get('latency', 0.0) * 1e3:.2f}ms > {a.get('bound', 0.0) * 1e3:.2f}ms"
            )
        if event.kind == EVENT_GUARD_AT_RISK_COMMIT:
            return f"height={a.get('height')}" + (" (retro)" if a.get("retro") else "")
        parts = []
        for key in ("reason", "seq", "rung", "epoch", "height"):
            if key in a:
                parts.append(f"{key}={a[key]}")
        for key in ("delta", "previous"):
            if key in a:
                parts.append(f"{key}={a[key] * 1e3:.1f}ms")
        return " ".join(parts)

    ordered = sorted(
        (e for e in events if e.kind in GUARD_MILESTONES), key=lambda e: e.time
    )
    collapsible = (EVENT_GUARD_VIOLATION, EVENT_GUARD_AT_RISK_COMMIT)
    # A run is per *replica*: interleaved events from other replicas do
    # not break it, but any different guard event from the same replica
    # does (so "violations, then an adjust, then more violations" keeps
    # its shape).
    open_run: Dict[int, Dict[str, object]] = {}
    for event in ordered:
        run = open_run.get(event.node)
        if run is not None and run["event"] == event.kind and event.kind in collapsible:
            run["count"] = int(run["count"]) + 1
            run["until_t"] = round(event.time, 6)
            if event.kind == EVENT_GUARD_VIOLATION:
                worst = max(run["_worst"], event.attrs.get("latency", 0.0))
                run["_worst"] = worst
                run["detail"] = f"worst {worst * 1e3:.2f}ms, last src={event.attrs.get('src')}"
            else:
                run["detail"] = f"heights {run['_first_height']}..{event.attrs.get('height')}"
            continue
        row: Dict[str, object] = {
            "t": round(event.time, 6),
            "until_t": "-",
            "replica": event.node,
            "event": event.kind,
            "count": 1,
            "detail": detail_of(event),
            "_worst": event.attrs.get("latency", 0.0),
            "_first_height": event.attrs.get("height"),
        }
        rows.append(row)
        open_run[event.node] = row
    for row in rows:
        row.pop("_worst", None)
        row.pop("_first_height", None)
    return rows


# ---------------------------------------------------------------------------
# Straggler detection
# ---------------------------------------------------------------------------


def straggler_rows(
    lifecycles: Dict[bytes, BlockLifecycle], threshold: float = 1.5
) -> List[Dict[str, object]]:
    """Per-replica lag profile; flags replicas ``threshold``× over median.

    Two lags per replica, averaged over the blocks it participated in:
    *deliver lag* (its header delivery vs the cluster-first delivery) and
    *commit lag* (its commit vs the cluster-first commit).
    """
    deliver_lags: Dict[int, List[float]] = {}
    commit_lags: Dict[int, List[float]] = {}
    for life in lifecycles.values():
        header_times = {
            node: kinds["header_deliver"]
            for node, kinds in life.marks.items()
            if "header_deliver" in kinds
        }
        if header_times:
            first = min(header_times.values())
            for node, t in header_times.items():
                deliver_lags.setdefault(node, []).append(t - first)
        commits = life.commit_times()
        if commits:
            first = min(commits.values())
            for node, t in commits.items():
                commit_lags.setdefault(node, []).append(t - first)

    nodes = sorted(set(deliver_lags) | set(commit_lags))
    means = {
        node: (
            sum(deliver_lags.get(node, [0.0])) / max(len(deliver_lags.get(node, [])), 1),
            sum(commit_lags.get(node, [0.0])) / max(len(commit_lags.get(node, [])), 1),
        )
        for node in nodes
    }
    if not nodes:
        return []
    commit_means = sorted(m[1] for m in means.values())
    median = commit_means[len(commit_means) // 2]
    rows = []
    for node in nodes:
        deliver_ms = means[node][0] * 1e3
        commit_ms = means[node][1] * 1e3
        flagged = median > 0 and means[node][1] > threshold * median
        rows.append(
            {
                "replica": node,
                "blocks": len(commit_lags.get(node, [])),
                "deliver_lag_ms": deliver_ms,
                "commit_lag_ms": commit_ms,
                "straggler": flagged,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Pipelining: in-flight span overlap
# ---------------------------------------------------------------------------


def span_overlap_rows(
    lifecycles: Dict[bytes, BlockLifecycle],
) -> List[Dict[str, object]]:
    """Per-epoch evidence that the leader actually pipelined.

    A block is *in flight* from its proposal to its cluster-first
    certificate.  The commit span is the wrong discriminator — every
    AlterBFT leader proposes h+1 while h's 2Δ commit window runs, depth 1
    included.  What only a chained leader does is propose h+1 *before h
    is certified*: with ``pipeline_depth=1`` consecutive certify-spans
    abut (overlap ~0, one uncertified block at a time), while a chained
    leader streams up to depth uncertified proposals whose spans overlap
    by up to a vote round-trip.

    One row per epoch: how many consecutive-height pairs were measured,
    what fraction overlapped, mean/max overlap, and the peak number of
    simultaneously in-flight (proposed-but-uncertified) blocks.
    """
    spans: List[Tuple[int, int, float, float]] = []
    for life in lifecycles.values():
        certify_times = [
            kinds[MARK_CERTIFY]
            for kinds in life.marks.values()
            if MARK_CERTIFY in kinds
        ]
        if life.propose_time is None or not certify_times or life.height is None:
            continue
        epoch = life.epoch if life.epoch is not None else -1
        spans.append((epoch, life.height, life.propose_time, min(certify_times)))
    spans.sort(key=lambda s: (s[1], s[2]))

    stats: Dict[int, Dict[str, float]] = {}
    for i in range(1, len(spans)):
        prev_epoch, prev_height, _, prev_commit = spans[i - 1]
        epoch, height, proposed, _ = spans[i]
        if height != prev_height + 1 or epoch != prev_epoch:
            continue  # epoch boundary or gap: not a pipelining measurement
        overlap = max(0.0, prev_commit - proposed)
        # Blocks still in flight the instant this one was proposed; the
        # lookback window is bounded but far wider than any sane depth.
        concurrent = 1 + sum(
            1
            for j in range(max(0, i - 64), i)
            if spans[j][3] > proposed
        )
        entry = stats.setdefault(
            epoch,
            {"pairs": 0, "overlapped": 0, "sum": 0.0, "max": 0.0, "inflight": 1},
        )
        entry["pairs"] += 1
        if overlap > 0.0:
            entry["overlapped"] += 1
        entry["sum"] += overlap
        entry["max"] = max(entry["max"], overlap)
        entry["inflight"] = max(entry["inflight"], concurrent)

    rows: List[Dict[str, object]] = []
    for epoch in sorted(stats):
        entry = stats[epoch]
        pairs = int(entry["pairs"])
        rows.append(
            {
                "epoch": epoch,
                "pairs": pairs,
                "overlapped_%": 100.0 * entry["overlapped"] / pairs,
                "overlap_mean_ms": entry["sum"] / pairs * 1e3,
                "overlap_max_ms": entry["max"] * 1e3,
                "max_inflight": int(entry["inflight"]),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Δ-headroom
# ---------------------------------------------------------------------------


def delta_headroom(
    messages: Sequence[MsgSample],
    delta: float,
    small_threshold: int,
) -> Dict[str, object]:
    """Observed small-message delay vs the configured synchrony bound Δ.

    The paper's hybrid model is sound only while every small message
    arrives within Δ; this reports how close a run came to the edge.
    """
    hist = Histogram(DEFAULT_LATENCY_BUCKETS)
    by_class: Dict[str, Histogram] = {}
    violations = 0
    for sample in messages:
        if sample.size > small_threshold or sample.src == sample.dst:
            continue
        hist.observe(sample.latency)
        by_class.setdefault(sample.cls, Histogram(DEFAULT_LATENCY_BUCKETS)).observe(
            sample.latency
        )
        if sample.latency > delta:
            violations += 1
    out: Dict[str, object] = {
        "delta_ms": delta * 1e3,
        "small_threshold_B": small_threshold,
        "samples": hist.count,
        "max_ms": hist.max * 1e3,
        "p99_ms": hist.quantile(0.99) * 1e3,
        "headroom_ms": (delta - hist.max) * 1e3 if hist.count else delta * 1e3,
        "headroom_x": (delta / hist.max) if hist.count and hist.max > 0 else float("inf"),
        "violations": violations,
        "by_class": {
            cls: {"count": h.count, "max_ms": h.max * 1e3, "p99_ms": h.quantile(0.99) * 1e3}
            for cls, h in sorted(by_class.items())
        },
    }
    return out


# ---------------------------------------------------------------------------
# One-call run summary (what the experiment runner attaches to results)
# ---------------------------------------------------------------------------


@dataclass
class ObsSummary:
    """Everything the observability layer distills from one run."""

    block_rows: List[Dict[str, object]]
    phase_rows: List[Dict[str, object]]
    epoch_rows: List[Dict[str, object]]
    straggler_rows: List[Dict[str, object]]
    headroom: Dict[str, object]

    @property
    def committed_blocks(self) -> int:
        return len(self.block_rows)


def summarize_recording(
    recorder: SpanRecorder,
    delta: float,
    small_threshold: int,
) -> ObsSummary:
    """Full analysis of one recording (the post-run entry point)."""
    lifecycles = assemble_lifecycles(recorder.events)
    block_rows = block_phase_rows(lifecycles)
    return ObsSummary(
        block_rows=block_rows,
        phase_rows=phase_summary_rows(block_rows),
        epoch_rows=epoch_timeline(recorder.events),
        straggler_rows=straggler_rows(lifecycles),
        headroom=delta_headroom(recorder.messages, delta, small_threshold),
    )
