"""E2 — Synchrony-bound violations by message size.

For a sweep of candidate bounds Δ, what fraction of messages of each size
violate it?  Small messages stop violating at a tiny Δ; large messages
keep violating any practical Δ — so a classical synchronous protocol must
either pick an enormous Δ (latency) or accept violations (safety).
"""

from __future__ import annotations

from ..measure.probe import sample_delay_model, violation_rate
from .claims import REPRODUCED, Check, Claim, cell, most
from .common import DEFAULT_NETWORK, ExperimentOutput, delay_model

#: Candidate bounds, seconds.
CANDIDATE_BOUNDS = (0.005, 0.010, 0.025, 0.050, 0.100, 0.250)

#: Sizes probed: one per decade across the small/large divide.
SIZES = (512, 4096, 65536, 1048576)


def run(fast: bool = True) -> ExperimentOutput:
    samples_per_size = 5_000 if fast else 50_000
    model = delay_model()
    samples = sample_delay_model(model, sizes=SIZES, samples_per_size=samples_per_size)
    rows = []
    for size in SIZES:
        row: dict = {
            "size_B": size,
            "class": "small" if size <= DEFAULT_NETWORK.small_threshold else "large",
        }
        for bound in CANDIDATE_BOUNDS:
            row[f"viol@{int(bound * 1e3)}ms_%"] = round(
                100.0 * violation_rate(samples[size], bound), 3
            )
        rows.append(row)
    small_at_5ms = rows[0]["viol@5ms_%"]
    large_at_100ms = rows[-1]["viol@100ms_%"]
    return ExperimentOutput(
        experiment_id="E2",
        title="Bound-violation rate vs message size and candidate Δ",
        rows=rows,
        headline={
            "small_violations_at_5ms_%": small_at_5ms,
            "large_violations_at_100ms_%": large_at_100ms,
        },
        claims=CLAIMS,
    )


CLAIMS = (
    Claim(
        "No single Δ serves both classes: any practical bound is violated "
        "by large messages and vastly over-provisioned for small ones.",
        REPRODUCED,
        (
            Check("small messages over 5 ms, %",
                  most("viol@5ms_%", **{"class": "small"}), "==", 0.0),
            Check("1 MiB messages over 25 ms, %", cell("viol@25ms_%", size_B=1048576), ">", 1.0),
        ),
    ),
)
