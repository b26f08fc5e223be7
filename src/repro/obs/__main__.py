"""``python -m repro.obs`` — the trace-analysis CLI.

``record`` writes one run file, ``trace.jsonl`` (the span recording and
the wire snapshot; :mod:`repro.obs.export`), plus its derived Chrome
view ``trace_chrome.json``.  Every other subcommand reads that one file:

* ``report`` — per-block phase-latency breakdown plus aggregate phase
  histogram statistics.
* ``block`` — "why was this block slow": per-replica milestones and the
  phase decomposition for one block (hash prefix).
* ``epochs`` — epoch-change timeline with triggering blames.
* ``recovery`` — per-replica crash-recovery drill-down: downtime,
  catchup milestones, and time-to-catchup.
* ``guard`` — synchrony-guard timeline: Δ violations, suspicion,
  adjustment certificates, installs, and at-risk commit runs.
* ``stragglers`` — per-replica delivery/commit lag profile.
* ``overlap`` — pipelining evidence: per-epoch overlap between
  consecutive blocks' in-flight spans and peak in-flight concurrency.
* ``headroom`` — observed small-message delay vs the configured Δ.
* ``wire`` — wire-level bandwidth drill-down: telescoping-sum
  validation, per-class and per-phase byte tables, and a cross-check of
  observed phases against the protocol's wire-phase contract
  (:func:`repro.runner.registry.wire_phases_for`).
* ``bandwidth`` — who sent the bytes: per-node egress, heaviest links,
  and the leader-egress share the paper's bandwidth argument turns on.
* ``chunks`` — chunked-dissemination drill-down: per-chunk-class bytes
  vs the blob payload path, share sizes, and the push/pull split.
* ``queues`` — egress backpressure samples (simulated bandwidth-limit
  queueing) per node.
* ``validate`` — reads each file (any malformed line or field is a
  problem, not a crash), renders its recording as a Chrome trace and
  validates that, and checks its wire snapshot's telescoping sums.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Dict, List, Optional, Sequence

from ..runner.cli import add_scenario_arguments, config_from_args, dispatch
from ..runner.report import format_table
from .analyze import (
    PHASE_NAMES,
    assemble_lifecycles,
    delta_headroom,
    epoch_timeline,
    guard_timeline,
    phase_durations,
    recovery_timeline,
    span_overlap_rows,
    straggler_rows,
    summarize_recording,
)
from .export import (
    read_jsonl,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .recorder import EVENT_GUARD_AT_RISK_COMMIT, EVENT_GUARD_DELTA_INSTALLED
from .wire import (
    WIRE_PHASE_NAMES,
    chunk_rows,
    class_rows,
    link_rows,
    phase_rows,
    queue_rows,
    sender_rows,
    validate_wire_snapshot,
)

#: Float tolerance when cross-checking phase sums vs end-to-end latency.
SUM_TOLERANCE_MS = 1e-6


def _round_row(row: Dict[str, object], digits: int = 3) -> Dict[str, object]:
    return {
        k: (round(v, digits) if isinstance(v, float) else v) for k, v in row.items()
    }


def phase_table(rows: Sequence[Dict[str, object]]) -> str:
    """The aggregate phase-latency table (``report``, and
    ``alterbft-bench run --obs`` for its run's ``ObsSummary.phase_rows``)."""
    return format_table([_round_row(r) for r in rows])


def wire_tables(snapshot: Dict[str, object]) -> str:
    """The per-class and per-phase byte tables of a wire snapshot
    (``wire``, and ``alterbft-bench run --obs`` for its run's wire)."""
    return "\n".join(
        [
            "bytes by message class:",
            format_table(
                class_rows(snapshot),
                ["class", "phase", "msgs", "bytes", "share_%", "small_B", "large_B",
                 "mean_B", "max_B"],
            ),
            "",
            "bytes by protocol phase:",
            format_table(phase_rows(snapshot)),
        ]
    )


# ---------------------------------------------------------------------------
# record
# ---------------------------------------------------------------------------


def _cmd_record(args: argparse.Namespace) -> int:
    from ..runner.cluster import build_cluster

    config = dataclasses.replace(config_from_args(args), observability=True)
    cluster = build_cluster(config)
    cluster.start()
    cluster.run()
    assert cluster.obs is not None
    meta = {
        "protocol": config.protocol,
        "seed": config.seed,
        "f": config.protocol_config.f,
        "n": config.protocol_config.n,
        "rate": args.rate,
        "duration": args.duration,
        "delta": config.protocol_config.delta,
        "small_threshold": config.network_config.small_threshold,
        "fingerprint": cluster.fingerprint(),
        "committed_blocks": cluster.collector.committed_blocks(),
    }
    snapshot = cluster.wire.snapshot(meta)
    os.makedirs(args.out_dir, exist_ok=True)
    jsonl_path = os.path.join(args.out_dir, "trace.jsonl")
    chrome_path = os.path.join(args.out_dir, "trace_chrome.json")
    write_jsonl(jsonl_path, cluster.obs, snapshot)
    write_chrome_trace(chrome_path, cluster.obs, meta)
    print(
        f"recorded {len(cluster.obs.events)} events, "
        f"{len(cluster.obs.messages)} message samples, "
        f"{snapshot['totals']['msgs']} messages / {snapshot['totals']['bytes']} wire bytes"
    )
    print(f"wrote {jsonl_path}")
    print(f"wrote {chrome_path}")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _cmd_report(args: argparse.Namespace) -> int:
    meta, recorder, wire = read_jsonl(args.trace)
    summary = summarize_recording(
        recorder, delta=float(meta.get("delta", 0.0)), small_threshold=wire["small_threshold"]
    )
    if not summary.block_rows:
        print("no committed blocks in trace")
        return 1

    worst_gap = 0.0
    for row in summary.block_rows:
        worst_gap = max(worst_gap, abs(row["total_ms"] - row["e2e_ms"]))
    block_rows = summary.block_rows
    if args.blocks and len(block_rows) > args.blocks:
        block_rows = sorted(block_rows, key=lambda r: r["e2e_ms"], reverse=True)[: args.blocks]
        block_rows.sort(key=lambda r: r["commit_t"])
        print(f"(showing the {args.blocks} slowest of {len(summary.block_rows)} blocks)")
    columns = ["block", "height", "epoch", "committer"] + [
        f"{p}_ms" for p in PHASE_NAMES
    ] + ["total_ms", "e2e_ms"]
    print(f"== per-block phase breakdown ({meta.get('protocol', '?')}) ==")
    print(format_table([_round_row(r) for r in block_rows], columns))
    print()
    print("== aggregate phase latency (first committer, all blocks) ==")
    print(phase_table(summary.phase_rows))
    print()
    print(
        f"phase-sum check: max |sum(phases) - e2e| = {worst_gap:.9f} ms "
        f"over {len(summary.block_rows)} blocks"
        + (" [OK]" if worst_gap <= SUM_TOLERANCE_MS else " [MISMATCH]")
    )
    if summary.epoch_rows:
        print()
        print("== epoch changes ==")
        print(format_table(summary.epoch_rows))
    return 0 if worst_gap <= SUM_TOLERANCE_MS else 1


# ---------------------------------------------------------------------------
# block
# ---------------------------------------------------------------------------


def _cmd_block(args: argparse.Namespace) -> int:
    _, recorder, _ = read_jsonl(args.trace)
    lifecycles = assemble_lifecycles(recorder.events)
    matches = [
        life for life in lifecycles.values() if life.hex.startswith(args.block.lower())
    ]
    if not matches:
        print(f"no block with hash prefix {args.block!r}")
        return 1
    if len(matches) > 1:
        print(f"ambiguous prefix {args.block!r}: {[m.hex[:12] for m in matches]}")
        return 1
    life = matches[0]
    print(f"block {life.hex}")
    print(f"height={life.height} epoch={life.epoch} proposer={life.proposer}")
    committer = life.first_committer()
    durations = None if committer is None else phase_durations(life.milestones_at(committer[0]))
    if durations is None:
        # No propose mark: an equivocating leader's variants are sent, not proposed.
        print("never committed in this trace" if committer is None
              else "committed, but its proposal was never recorded: no phase breakdown")
        mark_rows = [
            {"replica": node, **{k: round(t, 6) for k, t in sorted(kinds.items())}}
            for node, kinds in sorted(life.marks.items())
        ]
        print(format_table(mark_rows))
        return 0
    node, committed = committer
    print(f"first commit: replica {node} at t={committed:.6f}s "
          f"(e2e {(committed - life.propose_time) * 1e3:.3f} ms)")
    print()
    phase_rows = [
        {
            "phase": phase,
            "ms": round(durations[phase] * 1e3, 3),
            "share_%": round(
                100.0 * durations[phase] / max(committed - life.propose_time, 1e-12), 1
            ),
        }
        for phase in PHASE_NAMES
    ]
    print(format_table(phase_rows))
    slowest = max(PHASE_NAMES, key=lambda p: durations[p])
    print(f"\nslowest phase: {slowest} ({durations[slowest] * 1e3:.3f} ms)")
    print()
    print("== per-replica milestones (s) ==")
    mark_rows = []
    for replica, kinds in sorted(life.marks.items()):
        row: Dict[str, object] = {"replica": replica}
        for kind in ("header_deliver", "payload_deliver", "vote", "certify",
                     "window_clean", "commit"):
            row[kind] = round(kinds[kind], 6) if kind in kinds else "-"
        mark_rows.append(row)
    print(format_table(mark_rows))
    return 0


# ---------------------------------------------------------------------------
# epochs / stragglers / headroom
# ---------------------------------------------------------------------------


def _cmd_epochs(args: argparse.Namespace) -> int:
    _, recorder, _ = read_jsonl(args.trace)
    rows = epoch_timeline(recorder.events)
    if not rows:
        print("no epoch changes in trace")
        return 0
    print(format_table(rows))
    return 0


def _cmd_recovery(args: argparse.Namespace) -> int:
    _, recorder, _ = read_jsonl(args.trace)
    rows = recovery_timeline(recorder.events)
    if not rows:
        print("no recovery events in trace")
        return 0
    stalled = [r["replica"] for r in rows if not r["caught_up"]]
    print(format_table([_round_row(r) for r in rows]))
    if stalled:
        print(f"STALLED: replicas {stalled} restarted but never caught up")
        return 2
    print("all restarted replicas caught up")
    return 0


def _cmd_guard(args: argparse.Namespace) -> int:
    _, recorder, _ = read_jsonl(args.trace)
    rows = guard_timeline(recorder.events)
    if not rows:
        print("no synchrony-guard events in trace (guard disabled, or Δ never drifted)")
        return 0
    print(format_table(rows))
    installs = [r for r in rows if r["event"] == EVENT_GUARD_DELTA_INSTALLED]
    at_risk = sum(int(r["count"]) for r in rows if r["event"] == EVENT_GUARD_AT_RISK_COMMIT)
    print(f"\nΔ installs: {len(installs)}; at-risk commits: {at_risk}")
    return 0


def _cmd_stragglers(args: argparse.Namespace) -> int:
    _, recorder, _ = read_jsonl(args.trace)
    rows = straggler_rows(assemble_lifecycles(recorder.events), threshold=args.threshold)
    if not rows:
        print("no per-replica data in trace")
        return 0
    print(format_table([_round_row(r) for r in rows]))
    flagged = [r["replica"] for r in rows if r["straggler"]]
    print(f"stragglers: {flagged if flagged else 'none'}")
    return 0


def _cmd_overlap(args: argparse.Namespace) -> int:
    _, recorder, _ = read_jsonl(args.trace)
    rows = span_overlap_rows(assemble_lifecycles(recorder.events))
    if not rows:
        print("no consecutive committed heights in trace")
        return 0
    print(format_table([_round_row(r) for r in rows]))
    peak = max(int(r["max_inflight"]) for r in rows)
    print(f"\npeak uncertified in-flight blocks: {peak} "
          + ("(pipelined)" if peak > 1 else "(sequential — depth 1 or idle leader)"))
    return 0


def _cmd_headroom(args: argparse.Namespace) -> int:
    meta, recorder, wire = read_jsonl(args.trace)
    delta = float(meta.get("delta", 0.0)) if args.delta is None else args.delta
    if delta <= 0:
        print("no Δ in trace metadata; pass --delta SECONDS")
        return 1
    result = delta_headroom(recorder.messages, delta, wire["small_threshold"])
    by_class = result.pop("by_class")
    print(format_table([_round_row(result)]))
    print()
    print("== by message class (small messages only) ==")
    rows = [
        {"class": cls, **_round_row(stats)} for cls, stats in by_class.items()
    ]
    print(format_table(rows))
    violations = result["violations"]
    print(f"\nΔ violations: {violations}")
    return 0 if violations == 0 else 2


# ---------------------------------------------------------------------------
# wire / bandwidth / queues
# ---------------------------------------------------------------------------


def _cmd_wire(args: argparse.Namespace) -> int:
    meta, _, snapshot = read_jsonl(args.trace)
    problems = validate_wire_snapshot(snapshot)
    protocol = meta.get("protocol")

    # Cross-check observed phases against the protocol's wire-phase
    # contract, the phases of every message its replicas and subsystems
    # handle: traffic outside it is a class no receiver of this protocol
    # handles, or one the classifier does not know.
    observed = {row["phase"] for row in snapshot["phases"] if row["bytes"]}
    if protocol is not None:
        from ..errors import ConfigError
        from ..runner.registry import wire_phases_for

        try:
            declared = wire_phases_for(protocol)
        except ConfigError:
            print(f"(protocol {protocol!r} is not registered here: contract not checked)")
            declared = observed
        for phase in sorted(observed - declared):
            problems.append(
                f"observed phase {phase!r} outside {protocol}'s wire-phase contract"
            )

    print(f"== wire accounting ({protocol or '?'}) ==")
    print(f"total: {snapshot['totals']['msgs']} msgs, {snapshot['totals']['bytes']} bytes "
          f"(of which {snapshot['totals']['loopback_msgs']} loopback msgs / "
          f"{snapshot['totals']['loopback_bytes']} bytes never leave the host)")
    print()
    print(wire_tables(snapshot))
    if problems:
        print()
        print("INVALID:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print()
    print(f"telescoping check: ok (phases observed: "
          f"{', '.join(p for p in WIRE_PHASE_NAMES if p in observed)})")
    return 0


def _cmd_bandwidth(args: argparse.Namespace) -> int:
    meta, _, snapshot = read_jsonl(args.trace)
    print("per-node egress:")
    print(format_table(sender_rows(snapshot)))
    print()
    print(f"heaviest links (top {args.top}):")
    print(format_table(link_rows(snapshot, top=args.top)))
    print()
    print(f"leader egress share: {snapshot['leader_egress_share']:.4f}")
    committed = meta.get("committed_blocks")
    if committed:
        print(f"bytes per commit   : {snapshot['totals']['bytes'] / committed:.1f}")
    return 0


def _cmd_chunks(args: argparse.Namespace) -> int:
    _, _, snapshot = read_jsonl(args.trace)
    rows = chunk_rows(snapshot)
    if not rows:
        print("no dissemination traffic in snapshot (flag off, or a blob run)")
        return 1
    print("chunked dissemination by message class:")
    display = [
        {k: ("-" if v is None else v) for k, v in row.items()} for row in rows
    ]
    print(format_table(display))
    total = max(snapshot["totals"]["bytes"], 1)
    push = sum(r["bytes"] for r in rows if r["class"] == "ChunkShareMsg")
    pull = sum(r["bytes"] for r in rows if r["class"] == "ChunkResponseMsg")
    dissem_total = sum(r["bytes"] for r in rows)
    print()
    print(f"push (leader shares) : {push} B")
    print(f"pull (peer responses): {pull} B "
          f"({pull / max(push, 1):.2f}x the leader's share egress)")
    print(f"dissemination total  : {dissem_total} B "
          f"({100.0 * dissem_total / total:.1f}% of all wire bytes)")
    print(f"leader egress share  : {snapshot['leader_egress_share']:.4f}")
    return 0


def _cmd_queues(args: argparse.Namespace) -> int:
    _, _, snapshot = read_jsonl(args.trace)
    rows = queue_rows(snapshot)
    if not rows:
        print("no egress queueing observed (bandwidth limit off or never saturated)")
        return 0
    print(format_table(rows))
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _validate_one(path: str) -> List[str]:
    try:
        meta, recorder, wire = read_jsonl(path)
    except (ValueError, OSError) as exc:
        return [str(exc)]
    return validate_chrome_trace(to_chrome_trace(recorder, meta)) + validate_wire_snapshot(wire)


def _cmd_validate(args: argparse.Namespace) -> int:
    failed = False
    for path in args.traces:
        problems = _validate_one(path)
        if problems:
            failed = True
            print(f"{path}: INVALID")
            for problem in problems:
                print(f"  - {problem}")
        else:
            print(f"{path}: ok")
    return 1 if failed else 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m repro.obs")
    sub = parser.add_subparsers(dest="command", required=True)

    record_p = sub.add_parser("record", help="run a seeded scenario and write its run file")
    record_p.add_argument("--protocol", default="alterbft")
    add_scenario_arguments(record_p, rate=500.0, duration=2.0, seed=7)
    record_p.add_argument("--out-dir", default="obs_trace")
    record_p.set_defaults(func=_cmd_record)

    report_p = sub.add_parser("report", help="phase-latency breakdown for a trace")
    report_p.add_argument("trace")
    report_p.add_argument("--blocks", type=int, default=20,
                          help="cap on per-block rows shown (0 = all)")
    report_p.set_defaults(func=_cmd_report)

    block_p = sub.add_parser("block", help="why was this block slow")
    block_p.add_argument("trace")
    block_p.add_argument("block", help="block hash prefix (hex)")
    block_p.set_defaults(func=_cmd_block)

    epochs_p = sub.add_parser("epochs", help="epoch-change timeline with blames")
    epochs_p.add_argument("trace")
    epochs_p.set_defaults(func=_cmd_epochs)

    recovery_p = sub.add_parser("recovery", help="crash-recovery drill-down")
    recovery_p.add_argument("trace")
    recovery_p.set_defaults(func=_cmd_recovery)

    guard_p = sub.add_parser("guard", help="synchrony-guard Δ-drift timeline")
    guard_p.add_argument("trace")
    guard_p.set_defaults(func=_cmd_guard)

    stragglers_p = sub.add_parser("stragglers", help="per-replica lag profile")
    stragglers_p.add_argument("trace")
    stragglers_p.add_argument("--threshold", type=float, default=1.5)
    stragglers_p.set_defaults(func=_cmd_stragglers)

    overlap_p = sub.add_parser(
        "overlap", help="pipelining evidence: in-flight span overlap per epoch"
    )
    overlap_p.add_argument("trace")
    overlap_p.set_defaults(func=_cmd_overlap)

    headroom_p = sub.add_parser("headroom", help="small-message delay vs Δ")
    headroom_p.add_argument("trace")
    headroom_p.add_argument("--delta", type=float, default=None)
    headroom_p.set_defaults(func=_cmd_headroom)

    wire_p = sub.add_parser(
        "wire", help="wire-byte drill-down: classes, phases, telescoping check"
    )
    wire_p.add_argument("trace")
    wire_p.set_defaults(func=_cmd_wire)

    bandwidth_p = sub.add_parser(
        "bandwidth", help="who sent the bytes: per-node egress and heaviest links"
    )
    bandwidth_p.add_argument("trace")
    bandwidth_p.add_argument("--top", type=int, default=10, help="links shown")
    bandwidth_p.set_defaults(func=_cmd_bandwidth)

    chunks_p = sub.add_parser(
        "chunks", help="chunked-dissemination drill-down: push/pull byte split"
    )
    chunks_p.add_argument("trace")
    chunks_p.set_defaults(func=_cmd_chunks)

    queues_p = sub.add_parser(
        "queues", help="egress backpressure samples per node"
    )
    queues_p.add_argument("trace")
    queues_p.set_defaults(func=_cmd_queues)

    validate_p = sub.add_parser("validate", help="validate run files")
    validate_p.add_argument("traces", nargs="+")
    validate_p.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    return dispatch(build_parser().parse_args(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
