"""Plain-text report tables for experiment results.

Benchmarks print these tables; EXPERIMENTS.md embeds them.  Formatting is
deliberately dependency-free ASCII so output is diffable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from .metrics import ExperimentResult


def _columns(rows: Sequence[Dict[str, object]]) -> List[str]:
    """Every column any row has, in order of first appearance: a column
    only later rows carry (a variant's label) is not dropped."""
    return list(dict.fromkeys(key for row in rows for key in row))


def format_table(rows: Sequence[Dict[str, object]], columns: Sequence[str] = ()) -> str:
    """Render dict rows as an aligned ASCII table (columns: see :func:`_columns`)."""
    if not rows:
        return "(no rows)"
    if not columns:
        columns = _columns(rows)
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
    if value is None:  # no sample to measure (see ``runner.metrics.ms_cell``)
        return "—"
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


def speedup(base: float, other: float) -> float:
    """How many times smaller ``other`` is than ``base``."""
    if other <= 0:
        return float("inf")
    return base / other


def markdown_table(rows: Sequence[Dict[str, object]], columns: Sequence[str] = ()) -> str:
    """Render dict rows as a GitHub-flavored markdown table (columns: see
    :func:`_columns`)."""
    if not rows:
        return "(no rows)"
    if not columns:
        columns = _columns(rows)
    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(row.get(col, "")) for col in columns) + " |")
    return "\n".join(lines)
