"""A running replica keeps the cyclic collector off its committed history.

``Cluster.run`` and ``AsyncReplicaNode`` freeze the collector's heap at
every commit and thaw it when the run ends
(:func:`repro.consensus.ledger.freeze_history`).  That is lossless only
if nothing frozen dies in a reference cycle before the thaw: such an
object would be held, not freed, for the rest of the run.  These tests
pin that a run hides no garbage — after it, nothing is frozen and a full
collection finds nothing — for every protocol, every optional flag and
the Byzantine behaviours, and that a listener which does make a cycle per
commit is caught.  The slow sweep repeats the check over every ``--smoke``
scenario of ``repro.check``.
"""

from __future__ import annotations

import asyncio
import gc
from typing import List, Tuple

import pytest

from repro.bench.common import make_config
from repro.config import ProtocolConfig
from repro.consensus.validators import ValidatorSet
from repro.core.protocol import AlterBFTReplica
from repro.crypto.keystore import build_cluster_keys
from repro.net import transport
from repro.net.transport import AsyncReplicaNode, encode_frame, submit_transaction
from repro.runner.cluster import Cluster, build_cluster
from repro.types.transaction import make_transaction
from tests.test_transport import free_peer_map, make_replica

#: Every optional layer at once.
ALL_FLAGS = dict(
    crypto_batch=True,
    guard_enabled=True,
    checkpoint_interval=4,
    dissemination=True,
    pipeline_depth=2,
)

#: id → (protocol, flags, faults): the four protocols, every flag on, and
#: the behaviours that make a replica lie, vote badly or restart.
RUNS = {
    "alterbft": ("alterbft", {}, ()),
    "sync-hotstuff": ("sync-hotstuff", {}, ()),
    "hotstuff": ("hotstuff", {}, ()),
    "pbft": ("pbft", {}, ()),
    "alterbft-all-flags": ("alterbft", ALL_FLAGS, ()),
    "equivocate": ("alterbft", {}, ((0, "equivocate"),)),
    "bad-vote": ("alterbft", {}, ((2, "bad-vote"),)),
    "crash-recover": ("alterbft", {}, ((1, "crash-recover@0.4:0.8"),)),
}


def _cluster(name: str = "alterbft", seed: int = 7, duration: float = 1.5) -> Cluster:
    protocol, flags, faults = RUNS[name]
    return build_cluster(
        make_config(protocol, rate=500.0, duration=duration, seed=seed, faults=faults, **flags)
    )


def run_and_look(cluster: Cluster) -> Tuple[int, int]:
    """Run ``cluster`` to its horizon from a collected heap; then (objects
    still frozen, objects a full collection finds)."""
    gc.collect()
    cluster.start()
    cluster.run()
    return gc.get_freeze_count(), gc.collect()


def assert_hides_no_garbage(cluster: Cluster) -> None:
    frozen, found = run_and_look(cluster)
    assert frozen == 0, f"{frozen} objects still frozen after the run"
    assert found == 0, f"the run left {found} objects in reference cycles"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_run_hides_no_garbage(name):
    cluster = _cluster(name)
    assert_hides_no_garbage(cluster)
    assert cluster.replicas[0].ledger.height > 0


def test_a_listener_that_makes_a_cycle_per_commit_is_caught():
    """The check has teeth: one self-referencing list per commit, made
    before the commit's freeze, is held frozen to the end of the run and
    found, every one of them, once the run thaws the heap."""
    cluster = _cluster()
    made: List[None] = []

    def leak(block, now: float) -> None:
        cycle: list = []
        cycle.append(cycle)
        made.append(None)

    for replica in cluster.replicas:
        replica.ledger.add_listener(leak)
    with pytest.raises(AssertionError, match="reference cycles"):
        assert_hides_no_garbage(cluster)
    assert gc.get_freeze_count() == 0
    # The cycles were collected by the failing check; run a fresh cluster
    # to count them against the commits.
    made.clear()
    cluster = _cluster()
    for replica in cluster.replicas:
        replica.ledger.add_listener(leak)
    assert run_and_look(cluster) == (0, len(made))
    assert made


def test_the_heap_is_frozen_from_the_first_commit_on():
    cluster = _cluster()
    seen: List[int] = []
    cluster.replicas[0].ledger.add_listener(lambda block, now: seen.append(gc.get_freeze_count()))
    assert run_and_look(cluster) == (0, 0)
    # Listeners added before the run fire before its freeze: the first
    # commit may see an unfrozen heap, every later one a frozen one.
    assert len(seen) > 1 and all(count > 0 for count in seen[1:])


def test_two_runs_in_one_process_both_end_thawed():
    first, second = _cluster(seed=7), _cluster(seed=8)
    assert run_and_look(first) == (0, 0)
    assert run_and_look(second) == (0, 0)
    # The first run's listener is inert once thawed: driving its scheduler
    # on by hand commits more blocks and freezes nothing.
    height = first.replicas[0].ledger.height
    first.scheduler.run(until=first.config.max_sim_time + 0.5)
    assert first.replicas[0].ledger.height > height
    assert gc.get_freeze_count() == 0


def test_a_run_that_raises_still_thaws():
    cluster = _cluster()

    def fail() -> None:
        raise RuntimeError("boom")

    cluster.scheduler.at(0.5, fail)
    cluster.start()
    with pytest.raises(RuntimeError, match="boom"):
        cluster.run()
    assert cluster.replicas[0].ledger.height > 0
    assert gc.get_freeze_count() == 0


# -- real sockets ------------------------------------------------------------


def _loopback_run(height: int = 5) -> Tuple[int, int, List[int]]:
    """Three nodes on loopback, fed over one persistent client connection
    per node (as ``benchmarks/system`` feeds them), until every ledger
    reaches ``height``; after ``stop()``, with the nodes still referenced:
    (objects frozen, objects a full collection finds, node 0's freeze
    count at each commit before the first ``stop()``)."""
    seen: List[int] = []
    running: List[int] = []

    async def run():
        n, f = 3, 1
        pconf = ProtocolConfig(n=n, f=f, delta=0.02, epoch_timeout=2.0)
        signers = build_cluster_keys("hashsig", n)
        validators = ValidatorSet.synchronous(n, f)
        peers = free_peer_map(n)
        nodes = [
            AsyncReplicaNode(AlterBFTReplica(i, validators, pconf, signers[i]), peers)
            for i in range(n)
        ]
        nodes[0].replica.ledger.add_listener(lambda block, now: seen.append(gc.get_freeze_count()))
        await asyncio.gather(*(node.start() for node in nodes))
        writers = []
        try:
            for peer in peers.values():
                _, writer = await asyncio.open_connection(*peer)
                writer.write(encode_frame(("hello", -1)))
                writers.append(writer)
            loop = asyncio.get_running_loop()
            for seq in range(40):
                frame = encode_frame(("client-tx", make_transaction(1, seq, loop.time(), 64)))
                for writer in writers:
                    writer.write(frame)
            for _ in range(400):
                await asyncio.sleep(0.02)
                if min(node.replica.ledger.height for node in nodes) >= height:
                    break
            assert min(node.replica.ledger.height for node in nodes) >= height
        finally:
            # A stopped node thaws the one shared heap; the others' commits
            # from then on may see it thawed.
            running.extend(seen)
            for writer in writers:
                writer.close()
            await asyncio.gather(*(node.stop() for node in nodes))
        await asyncio.sleep(0.05)
        return gc.get_freeze_count(), gc.collect()

    gc.collect()
    frozen, found = asyncio.run(run())
    return frozen, found, running


def test_a_stopped_loopback_cluster_hides_no_more_than_an_unfrozen_one(monkeypatch):
    """Teardown closes every connection, and each closed transport is a
    cycle, so a collection after ``stop()`` does find objects; the freeze
    may add none to them."""
    frozen, found, seen = _loopback_run()
    assert frozen == 0
    assert len(seen) > 1 and all(count > 0 for count in seen[1:])
    monkeypatch.setattr(transport, "freeze_history", lambda ledgers: lambda: None)
    unfrozen_frozen, unfrozen_found, unfrozen_seen = _loopback_run()
    assert unfrozen_frozen == 0 and set(unfrozen_seen) == {0}
    assert found <= unfrozen_found


def test_closed_connections_are_reclaimed_from_a_frozen_heap(monkeypatch):
    """A short-lived client connection leaves a cycle behind it; a node
    thaws and collects the heap once per ``CLOSED_PER_RECLAIM`` of them, so
    a frozen heap cannot hold them until ``stop()``."""
    monkeypatch.setattr(transport, "CLOSED_PER_RECLAIM", 4)

    async def run():
        peers = free_peer_map(3)
        replica = make_replica(0)
        node = AsyncReplicaNode(replica, peers)
        await node.start()
        counts = []
        try:
            # A lone node commits nothing: freeze by hand, as a commit would.
            gc.freeze()
            for seq in range(4):
                counts.append(gc.get_freeze_count())
                await submit_transaction(peers[0], make_transaction(7, seq, 0.0, 16))
                for _ in range(100):
                    await asyncio.sleep(0.01)
                    if node._closed > seq:
                        break
            counts.append(gc.get_freeze_count())
        finally:
            await node.stop()
        return counts, len(replica.mempool)

    full_passes: List[int] = []

    def note(phase: str, info: dict) -> None:
        if phase == "stop" and info["generation"] == 2:
            full_passes.append(info["collected"])

    gc.callbacks.append(note)
    try:
        counts, pooled = asyncio.run(run())
    finally:
        gc.callbacks.remove(note)
        gc.unfreeze()
    assert pooled == 4
    assert all(count > 0 for count in counts[:4]), "frozen until the fourth close"
    assert counts[4] == 0, "the fourth closed connection thawed the heap"
    assert any(full_passes), "and a full collection freed the closed connections' cycles"


def test_a_dialed_link_that_died_counts_as_a_closed_connection():
    """A dial task ends when it connects; the node dials that peer again
    only once the link has died, which leaves the same cycle behind."""

    async def run():
        node = AsyncReplicaNode(make_replica(0), free_peer_map(3))
        await node.start()
        try:
            node._ensure_dialing(1)  # still dialing: nothing ended
            before = node._closed
            connected = asyncio.get_running_loop().create_future()
            connected.set_result(None)
            node._dial_tasks[1].cancel()
            node._dial_tasks[1] = connected
            node._ensure_dialing(1)
            return before, node._closed
        finally:
            await node.stop()

    assert asyncio.run(run()) == (0, 1)


# -- the check grid ------------------------------------------------------------


@pytest.mark.slow
def test_every_smoke_scenario_hides_no_garbage(monkeypatch):
    """Every ``--smoke`` scenario and the E10 demo, in this process: after
    each run, nothing is frozen and a full collection finds nothing, under
    every Byzantine behaviour and delay profile the grid carries."""
    from repro.check.runner import run_demo, run_scenario
    from repro.check.scenarios import PROFILES, grid

    looks: List[Tuple[int, int]] = []
    original = Cluster.run

    def run_then_look(cluster: Cluster) -> None:
        gc.collect()  # what the previous scenario dropped
        original(cluster)
        looks.append((gc.get_freeze_count(), gc.collect()))

    monkeypatch.setattr(Cluster, "run", run_then_look)
    scenarios = grid(smoke=True, profiles=[p for p in PROFILES if p != "stall-large"])
    assert len(scenarios) == 116
    for scenario in scenarios:
        run_scenario(scenario)
        assert looks[-1] == (0, 0), scenario.scenario_id
    ran = len(looks)
    demo = run_demo()
    assert demo is not None and demo[1], "the E10 demo forks, and replays byte-identically"
    assert len(looks) > ran + 1
    assert set(looks[ran:]) == {(0, 0)}, "E10 demo"
