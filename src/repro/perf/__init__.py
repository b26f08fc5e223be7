"""Performance benchmark and regression subsystem.

``python -m repro.perf`` runs a suite of microbenchmarks (codec, crypto,
scheduler, network) and writes ``BENCH_perf.json`` — one entry per
benchmark with p50/mean/stdev over repetitions.  ``--compare`` checks a
fresh run against a committed baseline and exits nonzero on a >25%
regression (direction-aware: per-op times must not grow, throughput
rates must not shrink).

End-to-end numbers — client to commit, on sockets and on the simulator,
with their own determinism and correctness gates — are the system
benchmark's (``BENCHMARK.json``, ``benchmarks/system/``), not this
package's.
"""

from .timing import BenchResult, measure, measure_rate
from .compare import CompareOutcome, compare_results, load_baseline
from .micro import run_micro as run_suite

__all__ = [
    "BenchResult",
    "CompareOutcome",
    "compare_results",
    "load_baseline",
    "measure",
    "measure_rate",
    "run_suite",
]
