"""E10 — Ablations of AlterBFT's design decisions.

Three switches DESIGN.md calls out, each removed under the adversary it
defends against:

* **Header relay off + equivocating leader** — without relaying, the two
  halves of the cluster never see each other's headers, both variants
  reach a quorum (the Byzantine leader votes for both), and the honest
  ledgers fork: a *measured safety violation*.
* **Vote-before-payload + payload-withholding leader** — replicas certify
  unavailable blocks; certificates keep forming, so the pacemaker sees
  progress and never blames: a measured *liveness* loss (zero commits).
* **Fixed epoch timer + slow large messages** — when payload delivery
  exceeds the (non-adaptive) epoch timeout, every epoch is blamed before
  it can commit; the adaptive timer doubles its way past the delivery
  time and recovers.
"""

from __future__ import annotations

from ..config import NetworkConfig
from ..runner.experiment import run_experiment
from .claims import REPRODUCED, Check, Claim, cell, headline, over
from .common import ExperimentOutput, make_config


def _run_case(label: str, config) -> dict:
    result = run_experiment(config)
    return {
        "case": label,
        "commits": result.committed_txs,
        "blocks": result.committed_blocks,
        "epoch_changes": result.epoch_changes,
        "safety_ok": result.safety_ok,
        "tput_tps": round(result.throughput_tps, 1),
    }


def run(fast: bool = True) -> ExperimentOutput:
    duration = 10.0 if fast else 16.0
    equivocate = {"rate": 300.0, "faults": ((1, "equivocate"),)}
    withhold = {"rate": 300.0, "faults": ((1, "withhold_payload"),)}
    # A thin pipe makes block delivery slower than the base timeout.
    slow = {
        "rate": None,
        "tx_size": 2048,
        "network": NetworkConfig(bandwidth=2e6, egress_bandwidth=8e6, slowdown_probability=0.0),
        "epoch_timeout": 0.25,
    }
    cases = (
        ("equivocate, relay=on", dict(equivocate, relay_headers=True)),
        ("equivocate, relay=off", dict(equivocate, relay_headers=False)),
        ("withhold, vote_after_payload=on", dict(withhold, vote_requires_payload=True)),
        ("withhold, vote_after_payload=off", dict(withhold, vote_requires_payload=False)),
        ("slow payloads, timer=adaptive", dict(slow, epoch_timeout_growth=2.0)),
        ("slow payloads, timer=fixed", dict(slow, epoch_timeout_growth=1.0)),
    )
    rows = [
        _run_case(label, make_config("alterbft", f=1, duration=duration, **overrides))
        for label, overrides in cases
    ]

    relay_off = next(r for r in rows if r["case"] == "equivocate, relay=off")
    vote_off = next(r for r in rows if "vote_after_payload=off" in str(r["case"]))
    fixed = next(r for r in rows if "timer=fixed" in str(r["case"]))
    adaptive = next(r for r in rows if "timer=adaptive" in str(r["case"]))
    return ExperimentOutput(
        experiment_id="E10",
        title="Design-choice ablations",
        rows=rows,
        headline={
            "relay_off_safety_violated": not relay_off["safety_ok"],
            "vote_on_header_commits": vote_off["commits"],
            "fixed_timer_blocks": fixed["blocks"],
            "adaptive_timer_blocks": adaptive["blocks"],
        },
        claims=CLAIMS,
    )


CLAIMS = (
    Claim(
        "Header relay, vote-after-payload, and adaptive timers are each "
        "load-bearing (reconstruction-specific ablation).",
        REPRODUCED,
        (
            Check("relay off, equivocating leader: safety violated",
                  headline("relay_off_safety_violated"), "==", True),
            Check("relay on, equivocating leader: safe",
                  cell("safety_ok", case="equivocate, relay=on"), "==", True),
            Check("commits voting before the payload / after it, withholding leader",
                  over(headline("vote_on_header_commits"),
                       cell("commits", case="withhold, vote_after_payload=on")),
                  "<", 0.5),
            Check("blocks with the adaptive epoch timer / the fixed one, slow payloads",
                  over(headline("adaptive_timer_blocks"), headline("fixed_timer_blocks")),
                  ">", 2.0),
        ),
        reading=(
            "The verification sweep (`python -m repro.check`) ends by "
            "replaying the relay-off fork as a standing negative control "
            "(DESIGN.md \"Verification harness\")."
        ),
    ),
)
