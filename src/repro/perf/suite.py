"""The benchmark suite, one call."""

from __future__ import annotations

from typing import List

from .micro import run_micro
from .timing import BenchResult


def run_suite(fast: bool = False) -> List[BenchResult]:
    """Run the benchmark suite and return all results.

    Args:
        fast: smaller repetition counts — the CI smoke configuration.
    """
    return run_micro(fast)
