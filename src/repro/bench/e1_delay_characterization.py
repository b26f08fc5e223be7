"""E1 — Cloud message-delay characterization (the paper's motivation).

Regenerates the figure showing per-size one-way delay percentiles: small
messages sit under a few milliseconds up to the far tail; large messages
pick up a bandwidth term *and* a heavy Pareto tail.  The hybrid
synchronous model is the formalization of exactly this plot.
"""

from __future__ import annotations

from ..measure.probe import DEFAULT_PROBE_SIZES, sample_delay_model
from ..measure.stats import LatencySummary
from .claims import REPRODUCED, Check, Claim, headline, least, most
from .common import DEFAULT_NETWORK, ExperimentOutput, delay_model


def run(fast: bool = True) -> ExperimentOutput:
    samples_per_size = 2_000 if fast else 20_000
    model = delay_model()
    samples = sample_delay_model(
        model, sizes=DEFAULT_PROBE_SIZES, samples_per_size=samples_per_size
    )
    rows = []
    for size in DEFAULT_PROBE_SIZES:
        summary = LatencySummary.from_samples(samples[size])
        rows.append(
            {
                "size_B": size,
                "class": "small" if size <= DEFAULT_NETWORK.small_threshold else "large",
                "p50_ms": round(summary.p50 * 1e3, 3),
                "p99_ms": round(summary.p99 * 1e3, 3),
                "p99.9_ms": round(summary.p999 * 1e3, 3),
                "max_ms": round(summary.max * 1e3, 3),
            }
        )
    small_max = max(r["max_ms"] for r in rows if r["class"] == "small")
    large_p999 = max(r["p99.9_ms"] for r in rows if r["class"] == "large")
    return ExperimentOutput(
        experiment_id="E1",
        title="Message delay vs size in the (simulated) cloud",
        rows=rows,
        headline={
            "small_max_ms": small_max,
            "large_p99.9_ms": large_p999,
            "tail_gap_x": round(large_p999 / small_max, 1),
        },
        claims=CLAIMS,
    )


SMALL, LARGE = {"class": "small"}, {"class": "large"}

CLAIMS = (
    Claim(
        "Cloud small-message delays are bounded at ms scale; large-message "
        "delays are heavy-tailed — the hybrid model's empirical basis.",
        REPRODUCED,
        (
            Check("largest small-message delay, ms", most("max_ms", **SMALL), "<=", 5.1),
            Check("lowest large-message p99.9, ms", least("p99.9_ms", **LARGE), ">", 20.0),
            Check("large p99.9 / small max", headline("tail_gap_x"), ">", 10.0),
        ),
    ),
)
