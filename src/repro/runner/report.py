"""Plain-text report tables for experiment results.

Benchmarks print these tables; EXPERIMENTS.md embeds them.  Formatting is
deliberately dependency-free ASCII so output is diffable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from .metrics import ExperimentResult


def format_table(rows: Sequence[Dict[str, object]], columns: Sequence[str] = ()) -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return "(no rows)"
    if not columns:
        columns = list(rows[0].keys())
    cells = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) for i, col in enumerate(columns)
    ]
    lines = [
        "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)),
        "  ".join("-" * widths[i] for i in range(len(columns))),
    ]
    for r in cells:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def results_table(results: Iterable[ExperimentResult], extra_cols: Sequence[str] = ()) -> str:
    """Standard comparison table across protocol runs."""
    rows = [r.row() for r in results]
    columns = [
        "protocol",
        "n",
        "f",
        "tput_tps",
        "lat_p50_ms",
        "lat_p99_ms",
        "blk_lat_p50_ms",
        "commits",
        "epoch_changes",
        "safety_ok",
    ]
    columns.extend(extra_cols)
    return format_table(rows, columns)


def phase_breakdown_table(result: ExperimentResult) -> str:
    """Per-phase latency table for an observability-enabled run.

    Renders the aggregate phase histograms the ``repro.obs`` registry
    accumulated (propose → header → payload → vote → certify → 2Δ-wait →
    commit, plus the end-to-end row); empty-string when the run was not
    observed.
    """
    rows = result.phase_breakdown_rows()
    if not rows:
        return ""
    rounded = [
        {k: (round(v, 3) if isinstance(v, float) else v) for k, v in row.items()}
        for row in rows
    ]
    return format_table(
        rounded, ["phase", "count", "mean_ms", "p50_ms", "p99_ms", "max_ms", "share_%"]
    )


def bandwidth_breakdown_table(result: ExperimentResult) -> str:
    """Per-message-class bandwidth table for a run.

    Renders the :class:`~repro.obs.wire.WireAccountant` snapshot the run
    carried: bytes/messages per class with phase and δ/Δ small-large
    split, a per-phase rollup, and the leader-egress / bytes-per-commit
    headline the paper's bandwidth argument turns on.
    """
    from ..obs.wire import class_rows, phase_rows

    snapshot = result.wire
    parts = [
        "bytes by message class:",
        format_table(
            class_rows(snapshot),
            ["class", "phase", "msgs", "bytes", "share_%", "small_B", "large_B", "mean_B"],
        ),
        "",
        "bytes by protocol phase:",
        format_table(phase_rows(snapshot), ["phase", "msgs", "bytes", "share_%"]),
        "",
        f"total wire bytes     : {snapshot['totals']['bytes']}",
        f"leader egress share  : {snapshot['leader_egress_share']:.4f}",
    ]
    committed = result.committed_blocks
    if committed:
        parts.append(
            f"bytes per commit     : {snapshot['totals']['bytes'] / committed:.1f}"
        )
    return "\n".join(parts)


def speedup(base: float, other: float) -> float:
    """How many times smaller ``other`` is than ``base``."""
    if other <= 0:
        return float("inf")
    return base / other


def markdown_table(rows: Sequence[Dict[str, object]], columns: Sequence[str] = ()) -> str:
    """Render dict rows as a GitHub-flavored markdown table."""
    if not rows:
        return "(no rows)"
    if not columns:
        columns = list(rows[0].keys())
    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(row.get(col, "")) for col in columns) + " |")
    return "\n".join(lines)
