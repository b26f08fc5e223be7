"""The full experiment suite: run everything, render EXPERIMENTS.md."""

from __future__ import annotations

import time
from types import ModuleType
from typing import Dict, List, Tuple

from ..runner.report import format_table, markdown_table
from . import (
    e1_delay_characterization,
    e2_bound_violations,
    e3_latency_throughput,
    e4_payload_size,
    e5_scalability,
    e6_faults,
    e7_delta_sensitivity,
    e8_comparison_table,
    e9_wan,
    e10_ablation,
    e11_model_validation,
    e12_recovery,
    e13_adaptive_delta,
)
from .claims import Claim, number, verdict_of
from .common import ExperimentOutput

#: Experiment id → its module (``run(fast)`` and the module's ``CLAIMS``),
#: in presentation order.
EXPERIMENTS: Tuple[Tuple[str, ModuleType], ...] = (
    ("E1", e1_delay_characterization),
    ("E2", e2_bound_violations),
    ("E3", e3_latency_throughput),
    ("E4", e4_payload_size),
    ("E5", e5_scalability),
    ("E6", e6_faults),
    ("E7", e7_delta_sensitivity),
    ("E8", e8_comparison_table),
    ("E9", e9_wan),
    ("E10", e10_ablation),
    ("E11", e11_model_validation),
    ("E12", e12_recovery),
    ("E13", e13_adaptive_delta),
)


def _columns(rows: List[Dict[str, object]]) -> List[str]:
    """Every column any row has, in order of first appearance: a variant
    row (``pipeline_depth``, ``variant``) keeps its label in the table."""
    return list(dict.fromkeys(key for row in rows for key in row))


def run_suite(fast: bool = True, ids: Tuple[str, ...] = ()) -> List[ExperimentOutput]:
    """Run the suite (optionally a subset) and return the outputs."""
    outputs = []
    for exp_id, module in EXPERIMENTS:
        if ids and exp_id not in ids:
            continue
        started = time.time()
        output = module.run(fast)
        print(f"\n=== {output.experiment_id}: {output.title} "
              f"({time.time() - started:.1f}s) ===")
        print(format_table(output.rows, _columns(output.rows)))
        print(f"headline: {output.headline}")
        for claim in output.claims:
            print("\n".join(_claim_lines(claim, output)[2:]))
        outputs.append(output)
    return outputs


def _claim_lines(claim: Claim, output: ExperimentOutput) -> List[str]:
    """A claim as EXPERIMENTS.md shows it: the paper's sentence, the
    verdict its checks read, and each number with its bound."""
    read = [(check, *check.read_on(output)) for check in claim.checks]
    verdict = verdict_of([met for _, _, met in read])
    if verdict != claim.verdict:
        verdict += f" (declared: {claim.verdict})"
    lines = [f"**Paper:** {claim.paper}", "", f"**Measured: {verdict}.** {claim.reading}".rstrip()]
    for check, value, met in read:
        outcome = "holds" if met else "misses"
        if met == check.misses:
            outcome += f" (declared to {'miss' if check.misses else 'hold'})"
        lines.append(f"- {check.what}: {number(value)} ({check.bound_text()}) — {outcome}")
    return lines


def render_experiments_md(outputs: List[ExperimentOutput], fast: bool) -> str:
    """Render EXPERIMENTS.md content from suite outputs."""
    mode = "fast" if fast else "full"
    lines = [
        "# EXPERIMENTS — paper vs measured",
        "",
        f"Regenerated by `python -m repro.bench --write-md EXPERIMENTS.md` (mode: {mode});",
        "a slow-tier test (`tests/test_bench_suite.py`) requires the committed",
        "file to be exactly what that command writes.  Absolute numbers come",
        "from the calibrated simulator (see DESIGN.md substitutions); the",
        "*shape* of each result is what reproduces the paper.  Each claim is",
        "declared once, in its experiment's module (`repro/bench/e*.py`), with",
        "the checks that read it and the verdict they are declared to give;",
        "the command exits 1 when a declared verdict does not hold.",
        "",
        "Phase breakdowns: any latency row here can be decomposed into",
        "per-phase times (header / payload / vote / certify / 2d_wait)",
        "with `python -m repro.obs record --protocol <p> ...` followed by",
        "`python -m repro.obs report trace.jsonl` — the per-phase sums",
        "telescope exactly to the end-to-end commit latency, and for",
        "AlterBFT the `2d_wait` phase should dominate (the 2Δ commit",
        "window the paper shrinks by keeping Δ-bounded messages small).",
        "See DESIGN.md → Observability.",
        "",
    ]
    for output in outputs:
        lines += [f"## {output.experiment_id} — {output.title}", ""]
        for claim in output.claims:
            lines += _claim_lines(claim, output) + [""]
        if output.headline:
            lines.append(
                "Headline: "
                + ", ".join(f"{k} = {v}" for k, v in output.headline.items())
            )
            lines.append("")
        lines += [markdown_table(output.rows, _columns(output.rows)), ""]
    return "\n".join(lines)
