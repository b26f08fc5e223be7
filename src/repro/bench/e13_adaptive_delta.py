"""E13 — Adaptive Δ under synchrony violation (guard-specific).

One replica's uplink degrades mid-run (the ``slow-link`` gray failure):
its outbound small messages take 1.5–3× the provisioned Δ, silently
breaking the synchrony assumption the commit rule rests on.  Measured,
for AlterBFT and Sync HotStuff with the synchrony guard off vs on:

* **silent commits** — blocks committed during the violation window with
  no at-risk flag and no re-certified Δ covering the inflated delays.
  This is the number the guard exists to drive to zero: a fixed-Δ
  protocol keeps committing as if its safety argument still held.
* **guard lifecycle** — violations observed, Δ-adjust certificates
  formed, the installed Δ trajectory, and where the ladder ends up after
  the network heals (the shrink path).
* **recovery** — commit throughput after the window vs before it: the
  guard's Δ escalation must not leave the cluster permanently slow.

The shape to expect: guard-off runs commit hundreds of blocks silently
inside the window; guard-on runs flag every in-window commit until f+1
replicas certify a Δ one-or-two rungs up, then commit cleanly under the
new bound, and shrink back to the base Δ after stabilization — with
post-window throughput within noise of pre-window.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..runner.cluster import Cluster, build_cluster, check_safety
from .common import ExperimentOutput, make_config

#: The replica whose uplink degrades.  Replica 1 leads epoch 1, so the
#: violation also stresses leader-side paths.
FAULTY_ID = 1

#: The gray-failure window, simulated seconds.  Starts after warmup so
#: the guard's rolling tail holds honest samples first.
T_START = 1.5
T_END = 3.0

#: Post-window settling time before "recovered" throughput is measured —
#: covers the stabilization window plus the shrink re-certification.
SETTLE = 0.5

#: An in-window commit is *silent* unless flagged at-risk or covered by a
#: certified Δ of at least this multiple of the base bound (the worst
#: inflation the slow link applies; see repro.faults.behaviors).
SAFE_FACTOR = 3.0

WORKLOAD_TPS = 400.0
TX_SIZE = 512

#: Probe cadence while guarded: dense enough that the faulty replica's
#: probe echoes alone sustain detection.
PROBE_INTERVAL = 0.02

PROTOCOLS = ("alterbft", "sync-hotstuff")

DURATION_FAST = 5.0
DURATION_FULL = 8.0


def _window_commits(cluster: Cluster, witness: int, lo: float, hi: float) -> int:
    records = cluster.collector.commit_records_by_replica.get(witness, [])
    return sum(1 for t, *_ in records if lo <= t < hi)


def _silent_commits(cluster: Cluster, witness: int) -> int:
    """In-window commits with neither an at-risk flag nor an adequate Δ."""
    replica = cluster.replicas[witness]
    guard = replica.subsystems.get("guard")
    if guard is None:
        # Fixed-Δ run: every in-window commit is silent by construction.
        return _window_commits(cluster, witness, T_START, T_END)
    base = guard.delta_history[0][1]
    silent = 0
    for record in guard.commit_records:
        if not T_START <= record.time < T_END:
            continue
        if record.flagged or guard.delta_at(record.time) >= SAFE_FACTOR * base:
            continue
        silent += 1
    return silent


def _run_one(protocol: str, guarded: bool, duration: float) -> Dict[str, object]:
    overrides: Dict[str, object] = {}
    if guarded:
        overrides = {"guard_enabled": True, "guard_probe_interval": PROBE_INTERVAL}
    config = make_config(
        protocol,
        f=1,
        rate=WORKLOAD_TPS,
        tx_size=TX_SIZE,
        duration=duration,
        warmup=0.5,
        faults=((FAULTY_ID, f"slow-link@{T_START}:{T_END}"),),
        **overrides,
    )
    cluster = build_cluster(config)
    cluster.start()
    cluster.run()

    witness = next(i for i in sorted(cluster.honest_ids))
    pre = _window_commits(cluster, witness, config.warmup, T_START)
    during = _window_commits(cluster, witness, T_START, T_END)
    # Measure recovery only while load is still offered (the generator
    # stops at the workload horizon, before the simulation horizon).
    post_start = T_END + SETTLE
    post_end = min(duration, config.workload.duration)
    post = _window_commits(cluster, witness, post_start, post_end)
    pre_rate = pre / max(T_START - config.warmup, 1e-9)
    post_rate = post / max(post_end - post_start, 1e-9)

    guard = cluster.replicas[witness].subsystems.get("guard")
    if guard is not None:
        installs = guard.installs
        at_risk = cluster.replicas[witness].ledger.at_risk_count
        final_rung = guard.rung
        delta_path = "->".join(
            f"{delta * 1e3:g}" for _, delta in guard.delta_history
        )
    else:
        installs, at_risk, final_rung, delta_path = 0, 0, 0, (
            f"{config.protocol_config.delta * 1e3:g}"
        )
    return {
        "protocol": protocol,
        "guard": "on" if guarded else "off",
        "commits_pre": pre,
        "commits_during": during,
        "commits_post": post,
        "silent_during": _silent_commits(cluster, witness),
        "at_risk": at_risk,
        "installs": installs,
        "delta_path_ms": delta_path,
        "final_rung": final_rung,
        "post_vs_pre_tput": round(post_rate / pre_rate, 2) if pre_rate > 0 else "-",
        "safety_ok": check_safety(cluster.replicas, cluster.honest_ids),
    }


def run(fast: bool = True) -> ExperimentOutput:
    duration = DURATION_FAST if fast else DURATION_FULL
    rows = [
        _run_one(protocol, guarded, duration)
        for protocol in PROTOCOLS
        for guarded in (False, True)
    ]

    def cell(protocol: str, guarded: bool, key: str) -> object:
        for row in rows:
            if row["protocol"] == protocol and row["guard"] == ("on" if guarded else "off"):
                return row[key]
        return "-"

    return ExperimentOutput(
        experiment_id="E13",
        title="Adaptive Δ: silent commits under synchrony violation, guard off vs on",
        rows=rows,
        headline={
            "alterbft_silent_unguarded": cell("alterbft", False, "silent_during"),
            "alterbft_silent_guarded": cell("alterbft", True, "silent_during"),
            "alterbft_delta_path_ms": cell("alterbft", True, "delta_path_ms"),
            "alterbft_post_vs_pre": cell("alterbft", True, "post_vs_pre_tput"),
            "all_safe": all(bool(r["safety_ok"]) for r in rows),
        },
        notes=(
            "With the guard off, every commit inside the violation window is "
            "silent — the fixed-Δ protocol cannot tell its synchrony "
            "assumption broke.  With the guard on, silent commits drop to "
            "zero: in-window commits are flagged at-risk until f+1 replicas "
            "certify a larger Δ, the new bound installs at an epoch "
            "boundary, and after the link heals the ladder shrinks back with "
            "post-window throughput comparable to pre-window."
        ),
    )
