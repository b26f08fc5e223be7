#!/usr/bin/env python3
"""One layer's CI smoke run: sweep → bench → record → validate → drill-downs.

Every step is optional and says which existing command line it is;
everything a step writes lands in ``--out-dir`` for one upload step.
``.github/workflows/ci.yml``'s ``layer-smoke`` matrix is the list of
invocations; run a row locally the same way, e.g.

    python scripts/ci_smoke.py --record "--protocol alterbft --rate 300 --duration 1.5 --seed 7" \
        --drill report,epochs,stragglers,overlap,headroom,wire,bandwidth,queues
"""

import argparse
import os
import pathlib
import shlex
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(module: str, *args: str) -> None:
    print(f"\n$ python -m {module} {' '.join(args)}", flush=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = subprocess.run([sys.executable, "-m", module, *args], cwd=ROOT, env=env).returncode
    if code:
        sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", help="`python -m repro.check` arguments (adds --jobs 2 --no-demo)")
    parser.add_argument(
        "--bench", help="comma-separated experiment ids for `python -m repro.bench --only` "
        "(exits 1 when a declared claim verdict does not hold)"
    )
    parser.add_argument("--record", help="`python -m repro.obs record` arguments (adds --out-dir)")
    parser.add_argument("--drill", default="", help="comma-separated repro.obs drill-down subcommands")
    parser.add_argument("--out-dir", default="smoke_artifacts")
    args = parser.parse_args()

    out = pathlib.Path(args.out_dir).resolve()
    out.mkdir(parents=True, exist_ok=True)
    if args.check:
        run("repro.check", *shlex.split(args.check), "--jobs", "2", "--no-demo")
    if args.bench:
        run("repro.bench", "--only", args.bench)
    if args.record:
        run("repro.obs", "record", *shlex.split(args.record), "--out-dir", str(out))
        run("repro.obs", "validate", str(out / "trace.jsonl"))
    for drill in filter(None, args.drill.split(",")):
        run("repro.obs", drill, str(out / "trace.jsonl"))


if __name__ == "__main__":
    main()
