"""``python -m repro.bench`` — run the experiment suite from the shell.

Options:
    --full        run full-size sweeps (slower, more points)
    --only E3,E4  run a subset of experiments
    --write-md    write EXPERIMENTS.md to this path after running

Exits 1 when a claim's declared verdict does not hold on the run
(:mod:`repro.bench.claims`), after printing which; ``alterbft-bench
suite`` is this command.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from .claims import failures
from .suite import EXPERIMENTS, render_experiments_md, run_suite


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench")
    parser.add_argument("--full", action="store_true", help="full-size sweeps")
    parser.add_argument("--only", default="", help="comma-separated experiment ids")
    parser.add_argument(
        "--write-md",
        default="",
        metavar="PATH",
        help="write EXPERIMENTS.md to this path after running",
    )
    args = parser.parse_args(argv)
    ids = tuple(x.strip() for x in args.only.split(",") if x.strip())
    unknown = sorted(set(ids) - {exp_id for exp_id, _ in EXPERIMENTS})
    if unknown:
        parser.error(f"unknown experiment id(s): {', '.join(unknown)}")
    outputs = run_suite(fast=not args.full, ids=ids)
    if args.write_md:
        content = render_experiments_md(outputs, fast=not args.full)
        pathlib.Path(args.write_md).write_text(content, encoding="utf-8")
        print(f"\nwrote {args.write_md}")
    failed = [(output.experiment_id, claim) for output in outputs for claim in failures(output)]
    for exp_id, claim in failed:
        print(f"{exp_id}: declared {claim.verdict!r} does not hold: {claim.paper}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
