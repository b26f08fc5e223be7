"""Cross-protocol safety regressions under Byzantine leaders.

Every protocol in the repo — not just AlterBFT — must keep its honest
replicas on one chain when the faulty replica equivocates or withholds
proposals/payloads.  The runs are asserted with the same invariant
checkers the verification sweep uses (`repro.check.invariants`), so the
baselines exercise the checkers against genuinely adversarial traffic:

* ``sync-hotstuff`` (n=2f+1): safety rests on the synchrony assumption
  plus equivocation detection during the 2Δ commit wait.
* ``hotstuff`` / ``pbft`` (n=3f+1): safety rests on quorum intersection;
  an equivocating leader can stall a view but never fork honest commits.

``withhold_payload`` degenerates for the combined-proposal protocols to
suppressing the leader's proposals entirely (there is no separate
payload to withhold), which must cost liveness for a view/epoch, never
safety.
"""

from __future__ import annotations

import pytest

from repro.check import check_agreement, check_certified_chain, install_certificate_log
from repro.runner.cluster import build_cluster

from tests.conftest import quick_config

PROTOCOLS = ("sync-hotstuff", "hotstuff", "pbft")
BEHAVIORS = ("equivocate", "withhold_payload")


def _run(protocol: str, behavior: str, seed: int = 1):
    config = quick_config(
        protocol=protocol,
        duration=4.0,
        seed=seed,
        faults=((1, behavior),),
    )
    cluster = build_cluster(config)
    install_certificate_log(cluster)
    cluster.start()
    cluster.run()
    return cluster


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("behavior", BEHAVIORS)
def test_byzantine_leader_cannot_fork_honest_replicas(protocol, behavior):
    cluster = _run(protocol, behavior)
    agreement = check_agreement(cluster)
    assert agreement.ok, agreement.detail
    chain = check_certified_chain(cluster)
    assert chain.ok, chain.detail


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_cluster_still_commits_past_the_faulty_leader(protocol):
    """Equivocation may stall one view/epoch but not the whole run.

    Asserted on the best honest replica, not all of them: a Byzantine
    leader can starve one honest replica of a block variant, and the
    baselines deliberately omit the state-sync a deployment would use to
    catch it up.  The starved replica's ledger is then an empty prefix —
    a liveness artifact the safety checks above already tolerate.
    """
    cluster = _run(protocol, "equivocate")
    heights = [
        cluster.replicas[i].ledger.height for i in sorted(cluster.honest_ids)
    ]
    assert max(heights) >= 1, f"no honest replica ever committed: {heights}"


@pytest.mark.parametrize(
    "protocol",
    ["sync-hotstuff"]
    + [pytest.param(p, marks=pytest.mark.slow) for p in ("hotstuff", "pbft")],
)
def test_byzantine_runs_are_deterministic(protocol):
    first = _run(protocol, "equivocate")
    second = _run(protocol, "equivocate")
    assert first.trace.fingerprint() == second.trace.fingerprint()
