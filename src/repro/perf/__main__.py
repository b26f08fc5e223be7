"""CLI: ``python -m repro.perf``.

Runs the microbenchmark suite, writes ``BENCH_perf.json``, and optionally
gates against a baseline::

    python -m repro.perf                          # full suite
    python -m repro.perf --fast                   # CI smoke: fewer repetitions
    python -m repro.perf --compare BENCH_perf.json   # exit 1 on >25% regression
    python -m repro.perf --compare BENCH_perf.json --warn-only
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from .compare import DEFAULT_THRESHOLD, compare_results, load_baseline, results_document
from .micro import run_micro as run_suite
from .timing import BenchResult


def _print_results(results: List[BenchResult]) -> None:
    width = max(len(r.name) for r in results)
    for r in results:
        print(
            f"  {r.name:<{width}}  p50={r.p50:.6g} {r.unit}"
            f"  mean={r.mean:.6g}  stdev={r.stdev:.2g}  (n={r.reps})"
        )


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf", description="Benchmark and regression suite."
    )
    parser.add_argument("--fast", action="store_true", help="CI smoke: fewer repetitions")
    parser.add_argument("--out", default="BENCH_perf.json", help="output JSON path")
    parser.add_argument("--compare", metavar="BASELINE", help="baseline JSON to gate against")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="regression threshold as a fraction of baseline p50 (default 0.25)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (PR smoke mode)",
    )
    args = parser.parse_args(argv)

    mode = "fast" if args.fast else "full"
    print(f"repro.perf: running {mode} suite ...")
    results = run_suite(fast=args.fast)
    _print_results(results)

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results_document(results, fast=args.fast), fh, indent=2)
        fh.write("\n")
    print(f"repro.perf: wrote {len(results)} benchmarks to {args.out}")

    if args.compare:
        baseline = load_baseline(args.compare)
        outcome = compare_results(results, baseline, threshold=args.threshold)
        print(f"repro.perf: comparing against {args.compare} (threshold {args.threshold:.0%})")
        for delta in outcome.deltas:
            print(f"  {delta.describe()}")
        for name in outcome.missing_in_baseline:
            print(f"  {name}: not in baseline (skipped)")
        for name in outcome.missing_in_current:
            print(f"  {name}: in baseline but not in this run (skipped)")
        if not outcome.ok:
            print(
                f"repro.perf: {len(outcome.regressions)} regression(s) beyond "
                f"{args.threshold:.0%}"
            )
            return 0 if args.warn_only else 1
        print("repro.perf: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
