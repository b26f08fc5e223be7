"""The one fetch (``repro.consensus.fetch``): every protocol asks for the
blocks it lacks with one request, serves it by one rule and checks the
answer by one rule before installing it."""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines.pbft import PREPARE_PHASE
from repro.bench.common import make_config
from repro.runner.cluster import build_cluster, check_safety
from repro.types.block import Block, make_block
from repro.types.certificates import Blame, Certificate, Vote
from repro.types.messages import BlockRangeRequestMsg, BlockRangeResponseMsg, SHProposalMsg


def _run(cluster):
    cluster.start()
    cluster.run()
    return cluster


def _sent(cluster, kinds):
    """Record (src, dst, class name) of every offered copy of ``kinds``."""
    seen = []

    def spy(src, dst, msg, size):
        if isinstance(msg, kinds):
            seen.append((src, dst, type(msg).__name__))
        return True

    cluster.network.add_filter(spy)
    return seen


def test_sync_hotstuff_ancestor_gap_is_filled_by_a_peer():
    """Replica 0 never receives the block at height 5.  After the epoch-1
    leader crashes, it votes for the next epoch's anchor, whose window then
    finds the gap: the fetch asks the crashed replica first, rotates, and
    the chain a peer serves lets replica 0 commit with the cluster."""
    cluster = build_cluster(
        make_config("sync-hotstuff", f=1, rate=200.0, duration=4.0, seed=3,
                    faults=((1, "crash@0.5"),))
    )
    cluster.network.add_filter(
        lambda src, dst, msg, size: not (
            dst == 0 and isinstance(msg, SHProposalMsg) and msg.block.height == 5
        )
    )
    fetched = _sent(cluster, (BlockRangeRequestMsg, BlockRangeResponseMsg))
    _run(cluster)
    assert check_safety(cluster.replicas, cluster.honest_ids)
    assert fetched == [
        (0, 1, "BlockRangeRequestMsg"),
        (0, 2, "BlockRangeRequestMsg"),
        (2, 0, "BlockRangeResponseMsg"),
    ]
    assert cluster.replicas[0].fetch.retries == 1
    assert cluster.replicas[0].ledger.height == cluster.replicas[2].ledger.height > 5


def test_pbft_fetch_rotates_past_a_new_primary_that_cannot_serve():
    """Replica 3 misses [0.3, 1.0) and the primary crashes at 1.2.  The new
    view shows replica 3 behind a proven checkpoint; the new primary's
    answer never arrives, and the retry asks the next peer.  Replica 3
    commits the fetched chain and the cluster, which needs its votes,
    keeps going."""
    cluster = build_cluster(
        make_config("pbft", f=1, rate=200.0, duration=4.0, seed=3, faults=((1, "crash@1.2"),))
    )
    scheduler = cluster.scheduler
    cluster.network.add_filter(
        lambda src, dst, msg, size: not (
            (dst == 3 and 0.3 <= scheduler.now < 1.0)
            or (src == 2 and isinstance(msg, BlockRangeResponseMsg))
        )
    )
    fetched = _sent(cluster, (BlockRangeRequestMsg,))
    _run(cluster)
    assert check_safety(cluster.replicas, cluster.honest_ids)
    assert fetched == [(3, 2, "BlockRangeRequestMsg"), (3, 0, "BlockRangeRequestMsg")]
    assert cluster.replicas[3].fetch.retries == 1
    heights = [cluster.replicas[i].ledger.height for i in (0, 2, 3)]
    assert len(set(heights)) == 1 and heights[0] > cluster.replicas[1].ledger.height


def test_pbft_keeps_one_commit_proof():
    """The head's commit certificate, and nothing per height."""
    cluster = _run(build_cluster(make_config("pbft", rate=200.0, duration=1.5, seed=7)))
    for replica in cluster.replicas:
        proof, head = replica._commit_qc, replica.ledger.head
        assert replica.ledger.height > 0
        assert (proof.height, proof.block_hash) == (head.height, head.block_hash)
        assert not hasattr(replica, "_commit_qcs")


# ---------------------------------------------------------------------------
# The receiver check, on all four protocols
# ---------------------------------------------------------------------------


def _answer(provider, to):
    """What ``provider`` serves replica ``to`` asking from genesis."""
    sent = []
    provider.send = lambda dst, msg: sent.append(msg)
    try:
        provider.fetch.on_request(to, BlockRangeRequestMsg(sender=to, from_height=0))
    finally:
        del provider.send
    (answer,) = sent
    assert answer.blocks and not answer.headers
    return answer


def _behind(protocol):
    """A cluster whose last replica stayed at genesis, and what replica 0
    serves it."""
    cluster = build_cluster(make_config(protocol, rate=200.0, duration=1.5, seed=7))
    receiver = cluster.replicas[-1]
    receiver.crashed = True
    _run(cluster)
    receiver.crashed = False
    return cluster, receiver, _answer(cluster.replicas[0], receiver.replica_id)


def _certificate(cluster, statements):
    return Certificate.assemble(statements, cluster.replicas[0].signer)


def _byzantine_answers(cluster, honest):
    """name → a forged variant of the ``honest`` answer."""
    justify, blocks = honest.justify, honest.blocks
    quorum = [r.signer for r in cluster.replicas[: cluster.replicas[0].validators.quorum]]
    protocol = justify.protocol
    blame = _certificate(cluster, [Blame.create(s, protocol, justify.epoch) for s in quorum])
    forged = {
        "unlinked": dataclasses.replace(honest, blocks=blocks[1:]),
        "off-justify": dataclasses.replace(honest, blocks=blocks[:-1]),
        "bad-payload": dataclasses.replace(
            honest, blocks=(Block(header=blocks[0].header, payload=blocks[1].payload), *blocks[1:])
        ),
        "wrong-kind": dataclasses.replace(honest, justify=blame),
        "wrong-protocol": dataclasses.replace(
            honest, justify=dataclasses.replace(justify, protocol="other")
        ),
    }
    if protocol == "pbft":
        prepared = _certificate(
            cluster,
            [
                Vote.create(s, protocol, justify.epoch, justify.height, justify.block_hash,
                            phase=PREPARE_PHASE)
                for s in quorum
            ],
        )
        forged["prepare-phase"] = dataclasses.replace(honest, justify=prepared)
    return forged


@pytest.mark.parametrize("protocol", ["alterbft", "sync-hotstuff", "hotstuff", "pbft"])
def test_a_byzantine_answer_is_refused(protocol):
    """A replica that stayed at genesis is offered its peer's chain, forged
    five ways (six for PBFT): each is refused and leaves nothing behind;
    the honest answer then installs, and PBFT commits it."""
    cluster, receiver, honest = _behind(protocol)
    top = honest.justify.block_hash
    refused = cluster.trace.counters["verification_failed"]
    for name, answer in _byzantine_answers(cluster, honest).items():
        receiver.handle(0, answer)
        refused += 1
        assert cluster.trace.counters["verification_failed"] == refused, name
        assert receiver.ledger.height == 0 and not receiver.store.has_header(top), name
    receiver.handle(0, honest)
    assert cluster.trace.counters["verification_failed"] == refused
    assert receiver.store.has_header(top)
    committed = honest.justify.height if protocol == "pbft" else 0
    assert receiver.ledger.height == committed


@pytest.mark.parametrize("protocol", ["alterbft", "sync-hotstuff", "hotstuff", "pbft"])
def test_a_certified_branch_off_the_head_is_refused(protocol):
    """The receiver committed its own block at height 1 and asks by hash
    for a block on its peer's chain, as HotStuff asks for a proposal's
    parent.  The peer's certified chain from height 2 carries that block
    but forks below the head: a provider's branch proves no fork of a
    commit, so it is refused, nothing is stored, and the replica runs on."""
    cluster, receiver, honest = _behind(protocol)
    mine = make_block(1, 1, receiver.ledger.head.block_hash, (), receiver.replica_id)
    assert mine.block_hash != honest.blocks[0].block_hash
    receiver.ledger.commit(mine, cluster.scheduler.now)
    top = honest.justify.block_hash
    receiver.fetch.want(honest.justify.height, top, wait=True)
    refused = cluster.trace.counters["verification_failed"]
    receiver.handle(0, dataclasses.replace(honest, blocks=honest.blocks[1:]))
    assert cluster.trace.counters["verification_failed"] == refused + 1
    assert not receiver.crashed and not cluster.trace.counters.get("fork_detected")
    assert receiver.ledger.height == 1 and not receiver.store.has_header(top)
