#!/usr/bin/env python3
"""System benchmark: client-to-commit, end to end and layer by layer.

    python3 benchmarks/system/run.py [--seed S] [--workload W] [--traced]
        every workload (or W), each in a fresh child process, one after the
        other; prints every metric by name with its unit; --out saves them
    python3 benchmarks/system/run.py --workload W --seed S --seconds T --trace 0|1
        one run, last stdout line is the result as one JSON object
    python3 benchmarks/system/run.py --smoke
    python3 benchmarks/system/run.py --compare A.json B.json

See README.md next to this file for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(REPO / "src"))

import catalog  # noqa: E402
from catalog import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS, median  # noqa: E402

#: Set-ups per reported ``setup_s`` (the measuring child's and two more
#: that stop as soon as they are ready); the median is reported.
SETUP_REPEATS = 3

#: A child that has not finished by now is killed and counted as all-failed.
CHILD_TIMEOUT_S = 150

UNITS = {name: unit for name, unit, *_ in (*END_TO_END, *PER_LAYER)}

#: On sim_* these are simulated-clock quantities: exact for a seed.
SIM_CLOCK = ("commit_latency_p50_ms", "commit_latency_p99_ms", "goodput_tx_s", "wire_bytes_per_tx")


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


def spawn(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    setup_only: bool = False,
    trace_out: Optional[str] = None,
) -> Optional[dict]:
    """Run one child to completion; None if it hung or died."""
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--child",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        repr(seconds),
        "--trace",
        "1" if trace else "0",
        "--spawned-at",
        repr(time.time()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        # subprocess.run kills the child and reaps it when the timeout hits.
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result after {CHILD_TIMEOUT_S} s, child killed", file=sys.stderr)
        return None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"{workload}: child exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child_main(args: argparse.Namespace) -> int:
    import harness

    result = harness.run_child(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        args.setup_only,
        args.spawned_at,
        args.trace_out,
    )
    print(json.dumps(result))
    return 0


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    trace_out: Optional[str] = None,
    untraced: Optional[dict] = None,
) -> dict:
    """One measured run plus what only a second process can tell.

    Untraced: two more set-ups, so ``setup_s`` is a median of three.
    Traced: the untraced twin of the run (``untraced``, or a fresh one),
    whose CPU per transaction is the base of ``bench.trace_overhead_ratio``.
    A child that hung or died yields a result with every transaction
    failed, so a livelock is reported rather than waited for.
    """
    result = spawn(workload, seed, seconds, trace, trace_out=trace_out)
    if result is None:
        return {
            "workload": workload,
            "seed": seed,
            "traced": trace,
            "correct": False,
            "breaches": ["no result: the workload child hung or died"],
            "attempted": 1,
            "failed": 1,
            "samples": 0,
            "fingerprint": None,
            "end_to_end": {},
            "per_layer": {},
        }
    if trace:
        twin = untraced or spawn(workload, seed, seconds, False)
        if twin is not None and twin["end_to_end"]:
            base = twin["end_to_end"]["cpu_s_per_ktx"]
            ratio = result["end_to_end"]["cpu_s_per_ktx"] / base
            result["per_layer"]["bench.trace_overhead_ratio"] = ratio
        return result
    setups = [result["setup_s"]]
    for _ in range(SETUP_REPEATS - 1):
        extra = spawn(workload, seed, seconds, False, setup_only=True)
        if extra is not None:
            setups.append(extra["setup_s"])
    result["end_to_end"]["setup_s"] = median(setups)
    return result


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def finite(value: object) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def fmt(value: float) -> str:
    if not finite(value):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def print_result(result: dict) -> None:
    which = "per_layer" if result["traced"] else "end_to_end"
    tag = "traced" if result["traced"] else "untraced"
    print(f"\n== {result['workload']}  seed={result['seed']}  ({tag}) ==")
    if not result["traced"]:
        share = result["failed"] / max(result["attempted"], 1)
        counts = f"({result['failed']} of {result['attempted']} attempted)"
        print(f"  {'failed_share':34s} {fmt(share):>14s} ratio   {counts}")
    for name, value in result[which].items():
        note = ""
        if name.startswith("commit_latency"):
            few = name.endswith("p99_ms") and result["samples"] < 1000
            note = f"   (n={result['samples']}{', fewer than 1000 samples' if few else ''})"
        print(f"  {name:34s} {fmt(value):>14s} {UNITS[name]}{note}")
    if not result["traced"] and result["per_layer"]:
        gap = result["per_layer"]["core.service_gap_ms"]
        if gap:
            print(f"  {'service_gap_ms':34s} {fmt(gap):>14s} ms")
    if not result["traced"]:
        scale = result["speed_scale"]
        print(f"  (times of CPU-bound work are scaled by {scale:.3f} to the reference machine speed)")
    if result.get("fingerprint"):
        print(f"  fingerprint {result['fingerprint']}")
    for breach in result["breaches"]:
        print(f"  BREACH: {breach}")


def contract_line(result: dict) -> str:
    """The last stdout line of a ``--trace 0|1`` run."""
    which = "per_layer" if result["traced"] else "end_to_end"
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": UNITS[name]} for name, value in result[which].items()
            },
        }
    )


def problems(result: dict) -> List[str]:
    """Why this run must not pass: breaches, missing or non-finite metrics."""
    found = list(result["breaches"])
    which, specs = ("per_layer", PER_LAYER) if result["traced"] else ("end_to_end", END_TO_END)
    emitted = result[which]
    expected = catalog.names(specs)
    if list(emitted) != expected:
        odd = sorted(set(emitted) ^ set(expected))
        found.append(f"{which} names differ from the catalog: {odd}")
    found += [f"{name} is not finite: {v}" for name, v in emitted.items() if not finite(v)]
    found += [f"{name} is 0" for name, value in result["end_to_end"].items() if value == 0]
    return found


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def contract_mode(args: argparse.Namespace) -> int:
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    found = problems(result)
    if result["end_to_end"] or result["per_layer"]:
        print_result(result)
    for problem in found:
        print(f"FAIL {args.workload}: {problem}", file=sys.stderr)
    if found and not result["breaches"]:
        return 1  # nothing trustworthy to print
    print(contract_line(result))
    return 1 if found else 0


def report_mode(args: argparse.Namespace) -> int:
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    document: dict = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0

    def shown(result: dict) -> dict:
        nonlocal status
        if result["end_to_end"]:
            print_result(result)
        for problem in problems(result):
            print(f"FAIL {result['workload']}: {problem}", file=sys.stderr)
            status = 1
        return result

    for workload in workloads:
        runs = [shown(measure(workload, args.seed, args.seconds, False)) for _ in range(args.repeat)]
        layer: dict = {}
        fingerprints = {run["fingerprint"] for run in runs}
        if args.traced:
            trace_out = f"{args.out}.{workload}.trace.json" if args.out else None
            traced = shown(measure(workload, args.seed, args.seconds, True, trace_out, runs[-1]))
            layer = traced["per_layer"]
            fingerprints.add(traced["fingerprint"])
        if len(fingerprints) > 1:
            print(f"FAIL {workload}: fingerprint differs between runs of seed {args.seed}", file=sys.stderr)
            status = 1
        document["workloads"][workload] = {
            "end_to_end": {
                name: [run["end_to_end"][name] for run in runs if name in run["end_to_end"]]
                for name in catalog.names(END_TO_END)
            },
            "per_layer": layer,
            "attempted": [run["attempted"] for run in runs],
            "failed": [run["failed"] for run in runs],
            "fingerprint": runs[-1]["fingerprint"],
        }
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1))
        print(f"\nwrote {args.out}")
    return status


def smoke_mode(args: argparse.Namespace) -> int:
    """Short runs that check the benchmark itself, not the program's speed."""
    failures: List[str] = []
    on_disk = json.loads((REPO / "BENCHMARK.json").read_text())
    if on_disk != catalog.benchmark_json():
        failures.append("BENCHMARK.json does not list exactly what the runner emits")
    for workload in WORKLOADS:
        untraced = spawn(workload, args.seed, 2.0, False)
        if untraced is None:
            failures.append(f"{workload}: no result")
            continue
        traced = measure(workload, args.seed, 2.0, True, untraced=untraced)
        for result in (untraced, traced):
            failures += [f"{workload}: {problem}" for problem in problems(result)]
        if not traced["per_layer"]:
            continue
        if untraced["failed"]:
            failures.append(f"{workload}: {untraced['failed']} of {untraced['attempted']} tx failed")
        layer = traced["per_layer"]
        total = sum(layer[f"{name}.share"] for name in catalog.LAYERS)
        total += layer["bench.harness_share"] + layer["bench.unattributed_share"]
        if abs(total - 1.0) > 0.02:
            failures.append(f"{workload}: shares sum to {total:.4f}, not 1 ± 0.02")
        phases = sum(v for k, v in layer.items() if k.startswith("phase."))
        p50 = traced["end_to_end"]["commit_latency_p50_ms"]
        if abs(phases - p50) > 0.10 * p50:
            failures.append(f"{workload}: phases sum to {phases:.2f} ms, p50 is {p50:.2f} ms")
        print(f"{workload}: shares sum {total:.4f}; phases {phases:.2f} ms vs p50 {p50:.2f} ms")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("smoke:", "FAILED" if failures else "ok")
    return 1 if failures else 0


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (range below 4 values)."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        width = max(values) - min(values)
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
        width = q3 - q1
    return width / abs(median(values)) if median(values) else math.inf


def compare_mode(args: argparse.Namespace) -> int:
    """Per workload × end-to-end metric: both medians, the bound, a verdict."""
    a_doc, b_doc = (json.loads(Path(p).read_text()) for p in args.compare)
    status = 0
    print(f"A = {args.compare[0]}   B = {args.compare[1]}   (ratios are B / A, base A)")
    header = f"{'workload':24s} {'metric':24s} {'A median':>12s} {'B median':>12s} {'B/A':>7s} {'bound':>6s} {'spread':>7s}  verdict"
    print(header)
    for workload in a_doc["workloads"]:
        if workload not in b_doc["workloads"]:
            continue
        a, b = a_doc["workloads"][workload], b_doc["workloads"][workload]
        for name, _, better, bound in END_TO_END:
            a_values, b_values = a["end_to_end"].get(name), b["end_to_end"].get(name)
            if not a_values or not b_values:
                continue
            a_med, b_med = median(a_values), median(b_values)
            ratio = b_med / a_med if a_med else math.inf
            worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
            wide = max(spread(a_values), spread(b_values))
            if worse_by > bound:
                verdict = "worse"
                status = 1
            elif wide > bound:
                verdict = "unresolved"
            else:
                verdict = "same"
            if workload.startswith("sim_") and name in SIM_CLOCK:
                exact = sorted(a_values) == sorted(b_values)
                verdict += "  (sim clock: exact)" if exact else "  (sim clock MOVED: behaviour change)"
            print(
                f"{workload:24s} {name:24s} {fmt(a_med):>12s} {fmt(b_med):>12s} {ratio:7.3f}"
                f" {bound:6.2f} {wide:7.3f}  {verdict}"
            )
        a_share = sum(a["failed"]) / max(sum(a["attempted"]), 1)
        b_share = sum(b["failed"]) / max(sum(b["attempted"]), 1)
        verdict = "same"
        if b_share > a_share + 0.001:
            verdict = "worse"
            status = 1
        print(
            f"{workload:24s} {'failed_share':24s} {a_share:12.4f} {b_share:12.4f} {'':7s}"
            f" {'+0.001':>6s} {'':7s}  {verdict}"
        )
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), help="single run; JSON result on the last line")
    parser.add_argument("--traced", action="store_true", help="report mode: also do the traced run")
    parser.add_argument("--repeat", type=int, default=1, help="report mode: untraced runs per workload")
    parser.add_argument("--out", help="report mode: write the results here as JSON")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--trace-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare_mode(args)
    if not (REPO / "src" / "repro").is_dir():
        print(f"no program to measure: {REPO / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if args.smoke:
        return smoke_mode(args)
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return contract_mode(args)
    return report_mode(args)


if __name__ == "__main__":
    sys.exit(main())
