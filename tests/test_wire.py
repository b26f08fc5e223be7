"""Wire-level bandwidth accounting: repro.obs.wire.

The load-bearing properties pinned here:

* **Telescoping** — every attribution axis (links, classes, phases, size
  classes, senders, receivers, heights, epochs) sums byte-exactly to the
  wire total on a real seeded run; no drill-down silently drops traffic.
* **One counter** — the accountant is the only message counter of a
  simulated run: the trace carries it, the network taps it once per
  offer, and its totals, per-sender bytes and per-class copies equal the
  counters ``Trace`` used to keep beside it (``tests/wire_oracle.py``).
* **Inertness** — the trace fingerprint, read from the accountant, is
  the golden fingerprint pinned when the trace counted messages itself.
* **Phase table** — every registered message class declares its
  ``WIRE_PHASE`` in ``repro.types.messages``, and ``classify_phase``
  reads that declaration; the whole class → phase table is pinned.
* **Contract** — the messages a subsystem handles share one phase no
  other owner handles, a protocol's full contract is the declared phases
  of what its ``HANDLERS`` map and its carried subsystems' handle, and
  live traffic stays inside it.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.common import make_config
from repro.baselines.hotstuff import HotStuffReplica
from repro.baselines.pbft import PBFTReplica
from repro.baselines.sync_hotstuff import SyncHotStuffReplica
from repro.core.protocol import AlterBFTReplica
from repro.obs.wire import (
    UNATTRIBUTED,
    WIRE_PHASE_NAMES,
    WireAccountant,
    classify_phase,
    class_rows,
    link_rows,
    phase_rows,
    queue_rows,
    sender_rows,
    validate_wire_snapshot,
)
from repro.obs.export import read_jsonl, write_jsonl
from repro.obs.recorder import SpanRecorder
from repro.net.delay import HybridCloudDelayModel
from repro.net.simnet import SimNetwork
from repro.config import NetworkConfig
from repro.runner.cluster import build_cluster
from repro.codec import registered_types
from repro.consensus.fetch import Fetch
from repro.runner.registry import SUBSYSTEMS, wire_phases_for
from repro.types.block import BlockHeader
from repro.types.messages import (
    BlameMsg,
    PayloadMsg,
    ProbeMsg,
    ProposalHeaderMsg,
    StatusMsg,
    VoteMsg,
)
from repro.types.certificates import Blame, Vote
from repro.crypto.keystore import build_cluster_keys
from repro.sim.rng import RngFactory
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import Trace
from tests.test_perf_hotpath import GOLDEN_FINGERPRINT
from tests.wire_oracle import OracleAccountant, OracleNetwork, count_offers

ALL_REPLICA_CLASSES = (AlterBFTReplica, SyncHotStuffReplica, HotStuffReplica, PBFTReplica)


def _header(epoch: int = 2, height: int = 5) -> BlockHeader:
    return BlockHeader(
        epoch=epoch,
        height=height,
        parent=b"\x00" * 32,
        payload_root=b"\x11" * 32,
        payload_size=1000,
        payload_count=3,
        proposer=0,
    )


def _signer():
    return build_cluster_keys("hashsig", 1)[0]


#: The seeded run the golden fingerprint was pinned on.
GOLDEN_RUN = make_config("alterbft", f=1, rate=500.0, duration=1.5, seed=7)


def _run_cluster():
    cluster = build_cluster(GOLDEN_RUN)
    cluster.start()
    cluster.run()
    return cluster


# ---------------------------------------------------------------------------
# Phase classification and the declared per-protocol contract
# ---------------------------------------------------------------------------


#: Every registered message class → its phase: the table the accountant
#: classified by before each class declared its own phase.
PHASE_TABLE = {
    "ProposalHeaderMsg": "propose",
    "PayloadMsg": "payload",
    "VoteMsg": "vote",
    "BlameMsg": "epoch_change",
    "BlameCertMsg": "epoch_change",
    "EquivocationProofMsg": "epoch_change",
    "StatusMsg": "epoch_change",
    "PayloadRequestMsg": "repair",
    "PayloadResponseMsg": "repair",
    "BlockRangeRequestMsg": "repair",
    "BlockRangeResponseMsg": "repair",
    "CheckpointVoteMsg": "recovery",
    "StatusRequestMsg": "recovery",
    "StatusResponseMsg": "recovery",
    "SnapshotRequestMsg": "recovery",
    "SnapshotResponseMsg": "recovery",
    "SHProposalMsg": "propose",
    "HSProposalMsg": "propose",
    "HSNewViewMsg": "epoch_change",
    "PBFTPrePrepareMsg": "propose",
    "PBFTPrepareMsg": "vote",
    "PBFTCommitMsg": "vote",
    "PBFTViewChangeMsg": "epoch_change",
    "PBFTNewViewMsg": "epoch_change",
    "ProbeMsg": "measure",
    "ProbeAckMsg": "measure",
    "ClientReplyMsg": "client",
    "GuardProbeMsg": "guard",
    "GuardProbeEchoMsg": "guard",
    "DeltaAdjustMsg": "guard",
    "DeltaAdjustCertMsg": "guard",
    "ChunkShareMsg": "dissemination",
    "ChunkRequestMsg": "dissemination",
    "ChunkResponseMsg": "dissemination",
}


def _phases(owner) -> set:
    """The declared phases of the classes ``owner`` (a replica class or a
    subsystem) handles."""
    return {msg_cls.WIRE_PHASE for msg_cls in owner.HANDLERS}


class TestPhaseContract:
    def test_every_message_class_declares_its_phase(self):
        """Each registered ``*Msg`` class declares a real phase on itself,
        and the accountant classifies by exactly that declaration; every
        other registered type (blocks, votes, certificates) reads "other"."""
        messages = {c.__name__: c for c in registered_types().values() if c.__name__.endswith("Msg")}
        assert {name: cls.__dict__["WIRE_PHASE"] for name, cls in messages.items()} == PHASE_TABLE
        for cls in registered_types().values():
            assert classify_phase(cls.__name__) == PHASE_TABLE.get(cls.__name__, "other")
        assert set(PHASE_TABLE.values()) == set(WIRE_PHASE_NAMES) - {"other"}

    def test_every_handled_class_has_a_phase(self):
        """No consensus message class may fall into 'other'."""
        for owner in (*ALL_REPLICA_CLASSES, Fetch, *SUBSYSTEMS):
            for msg_cls in owner.HANDLERS:
                phase = classify_phase(msg_cls.__name__)
                assert phase != "other", f"{msg_cls.__name__} unclassified"
                assert phase in WIRE_PHASE_NAMES

    def test_a_subsystem_owns_one_phase(self):
        """Every message a subsystem handles declares one phase, and no two
        subsystems (or a subsystem and a core protocol) share one."""
        owned = []
        for subsystem in SUBSYSTEMS:
            assert subsystem.HANDLERS, subsystem.name
            (phase,) = _phases(subsystem)
            owned.append(phase)
        assert owned == ["recovery", "guard", "dissemination"]
        for cls in (*ALL_REPLICA_CLASSES, Fetch):
            assert not set(owned) & _phases(cls)

    def test_full_contract_is_core_plus_carried_subsystems(self):
        """What ``repro.obs wire`` holds observed traffic to — pinned to the
        values the classes declared before subsystems owned their phases,
        so the contract can never silently get weaker."""
        for cls in ALL_REPLICA_CLASSES:
            carried = [s for s in SUBSYSTEMS if s.name in cls.FEATURES]
            expected = _phases(cls).union(_phases(Fetch), *map(_phases, carried))
            assert wire_phases_for(cls.protocol_name) == expected
        assert wire_phases_for("alterbft") == {
            "propose",
            "payload",
            "dissemination",
            "vote",
            "epoch_change",
            "repair",
            "recovery",
            "guard",
        }
        assert wire_phases_for("sync-hotstuff") == {
            "propose",
            "vote",
            "epoch_change",
            "repair",
            "recovery",
            "guard",
        }
        assert wire_phases_for("hotstuff") == {"propose", "vote", "epoch_change", "repair"}
        assert wire_phases_for("pbft") == {"propose", "vote", "epoch_change", "repair"}

    def test_unknown_class_is_other(self):
        assert classify_phase("NoSuchMsg") == "other"

    def test_alterbft_has_separate_payload_phase(self):
        """The split the paper turns on: AlterBFT disseminates payloads
        outside the Δ-bounded propose phase; Sync HotStuff cannot."""
        assert "payload" in _phases(AlterBFTReplica)
        assert "payload" not in _phases(SyncHotStuffReplica)


# ---------------------------------------------------------------------------
# Unit-level accounting
# ---------------------------------------------------------------------------


class TestAccounting:
    def test_attributes_all_axes(self):
        acct = WireAccountant(small_threshold=4096)
        header_msg = ProposalHeaderMsg(header=_header(), signature=b"s", justify=None)
        acct.account(0, 1, header_msg, 300)
        acct.account(0, 2, header_msg, 300)
        payload = PayloadMsg(epoch=2, height=5, block_hash=b"\x22" * 32, payload=None)
        acct.account(0, 1, payload, 9000)

        assert acct.bytes_total == 9600
        assert acct.msgs_total == 3
        assert acct.link_bytes[(0, 1)] == 9300
        assert acct.class_bytes["ProposalHeaderMsg"] == 600
        assert acct.phase_bytes["propose"] == 600
        assert acct.phase_bytes["payload"] == 9000
        assert acct.size_class_bytes["small"] == 600
        assert acct.size_class_bytes["large"] == 9000
        assert acct.height_bytes[5] == 9600
        assert acct.epoch_bytes[2] == 9600
        assert acct.sender_bytes[0] == 9600
        assert acct.receiver_bytes[1] == 9300

    def test_vote_and_blame_coordinates(self):
        signer = _signer()
        acct = WireAccountant(small_threshold=4096)
        vote = Vote.create(signer, "alterbft", 3, 7, b"\x01" * 32)
        acct.account(1, 0, VoteMsg(vote=vote), 120)
        blame = Blame.create(signer, "alterbft", 4)
        acct.account(1, 0, BlameMsg(blame=blame), 80)
        assert acct.epoch_bytes[3] == 120 and acct.height_bytes[7] == 120
        assert acct.epoch_bytes[4] == 80
        assert acct.height_bytes[UNATTRIBUTED] == 80

    def test_status_msg_new_epoch(self):
        acct = WireAccountant(small_threshold=4096)
        msg = StatusMsg(sender=2, new_epoch=6, high_qc=None)
        acct.account(2, 0, msg, 64)
        assert acct.epoch_bytes[6] == 64
        assert acct.phase_bytes["epoch_change"] == 64

    def test_loopback_counted_separately_but_included(self):
        acct = WireAccountant(small_threshold=4096)
        msg = StatusMsg(sender=0, new_epoch=1, high_qc=None)
        acct.account(0, 0, msg, 50)
        acct.account(0, 1, msg, 50)
        assert acct.bytes_total == 100
        assert acct.loopback_bytes == 50 and acct.loopback_msgs == 1

    def test_small_large_boundary_is_inclusive(self):
        acct = WireAccountant(small_threshold=100)
        msg = StatusMsg(sender=0, new_epoch=1, high_qc=None)
        acct.account(0, 1, msg, 100)
        acct.account(0, 1, msg, 101)
        assert acct.size_class_bytes["small"] == 100
        assert acct.size_class_bytes["large"] == 101

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            WireAccountant(small_threshold=0)

    def test_queue_samples_surface_in_snapshot(self):
        acct = WireAccountant(4096)
        acct.account(0, 1, StatusMsg(sender=0, new_epoch=1, high_qc=None), 10)
        acct.sample_queue(1.0, 0, backlog=0.002, queued_bytes=5000)
        acct.sample_queue(1.1, 0, backlog=0.004, queued_bytes=7000)
        snapshot = acct.snapshot()
        assert validate_wire_snapshot(snapshot) == []
        (row,) = queue_rows(snapshot)
        assert row["node"] == 0 and row["samples"] == 2
        assert row["max_backlog_ms"] == 4.0


# ---------------------------------------------------------------------------
# The per-offer tally against the per-copy accountant it replaced
# ---------------------------------------------------------------------------

#: Every axis the per-copy accountant kept as a plain ``Counter``.
COUNTER_AXES = (
    "link_bytes",
    "link_msgs",
    "class_bytes",
    "class_msgs",
    "class_size_bytes",
    "sender_bytes",
    "sender_msgs",
    "receiver_bytes",
    "size_class_bytes",
    "size_class_msgs",
    "phase_bytes",
    "phase_msgs",
    "height_bytes",
    "epoch_bytes",
)
LIVE_TOTALS = ("bytes_total", "msgs_total", "loopback_bytes", "loopback_msgs")

ORACLE_THRESHOLD = 100
#: Repeated sizes on both sides of (and exactly on) the small threshold.
ORACLE_SIZES = (10, 99, 100, 101, 101, 5000)
#: Three classes: header coordinates, an epoch only, no coordinates at all.
ORACLE_MESSAGES = (
    ProposalHeaderMsg(header=_header(2, 5), signature=b"s", justify=None),
    ProposalHeaderMsg(header=_header(3, 6), signature=b"s", justify=None),
    StatusMsg(sender=0, new_epoch=4, high_qc=None),
    ProbeMsg(probe_id=1, sent_at=0.0, padding=b""),
)


def assert_same_accounting(acct, oracle) -> None:
    """Every public reading of ``acct`` equals the per-copy oracle's."""
    for name in LIVE_TOTALS:
        assert getattr(acct, name) == getattr(oracle, name), name
    for name in COUNTER_AXES:
        assert dict(getattr(acct, name)) == dict(getattr(oracle, name)), name
    assert {c: h.to_dict() for c, h in acct.size_hist.items()} == {
        c: h.to_dict() for c, h in oracle.size_hist.items()
    }
    assert acct.leader_egress_share() == oracle.leader_egress_share()
    assert acct.queue_samples == oracle.queue_samples
    snapshot = acct.snapshot(meta={"seed": 1})
    assert snapshot == oracle.snapshot(meta={"seed": 1})
    assert validate_wire_snapshot(snapshot) == []


_node = st.integers(0, 3)
_offer = st.tuples(
    _node,
    st.one_of(_node, st.lists(_node, min_size=1, unique=True).map(tuple)),
    st.sampled_from(ORACLE_MESSAGES),
    st.sampled_from(ORACLE_SIZES),
)
#: An offer, or the name of a view to read between two offers.
_step = st.one_of(_offer, st.sampled_from(COUNTER_AXES + ("size_hist", "snapshot")))


def _feed(steps):
    """One accountant fed offer by offer beside an oracle fed copy by copy."""
    acct, oracle = WireAccountant(ORACLE_THRESHOLD), OracleAccountant(ORACLE_THRESHOLD)
    for step in steps:
        if step == "snapshot":
            acct.snapshot()
            continue
        if isinstance(step, str):
            # A read between offers must not freeze what later reads see.
            getattr(acct, step)
            continue
        src, dst, msg, size = step
        acct.account(src, dst, msg, size)
        for copy in dst if isinstance(dst, tuple) else (dst,):
            oracle.account(src, copy, msg, size)
    return acct, oracle


class TestTallyAgainstPerCopyOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_step, max_size=40))
    def test_every_reading_equals_the_oracle(self, steps):
        acct, oracle = _feed(steps)
        assert_same_accounting(acct, oracle)
        acct.sample_queue(1.0, 2, backlog=0.001, queued_bytes=5000)
        oracle.sample_queue(1.0, 2, backlog=0.001, queued_bytes=5000)
        assert_same_accounting(acct, oracle)

    def test_a_broadcast_is_one_tally_row_and_one_loopback(self):
        acct = WireAccountant(ORACLE_THRESHOLD)
        msg = ORACLE_MESSAGES[0]
        for _ in range(3):
            acct.account(1, (0, 1, 2), msg, 60)
        assert acct.msgs_total == 9 and acct.bytes_total == 540
        assert acct.loopback_msgs == 3 and acct.loopback_bytes == 180
        assert acct.link_msgs == {(1, 0): 3, (1, 1): 3, (1, 2): 3}
        assert acct.height_bytes == {5: 540}
        assert len(acct._tally) == 1

    def test_no_destinations_is_no_offer(self):
        acct = WireAccountant(ORACLE_THRESHOLD)
        acct.account(0, (), ORACLE_MESSAGES[0], 60)
        assert acct.snapshot() == WireAccountant(ORACLE_THRESHOLD).snapshot()

    def test_a_missing_key_reads_zero(self):
        acct = WireAccountant(ORACLE_THRESHOLD)
        assert acct.size_class_msgs["small"] == 0
        assert acct.class_msgs["ChunkRequestMsg"] == 0
        assert acct.leader_egress_share() == 0.0


def _faulty_network(cls, wire, seed):
    """A 5-node network with every kind of fault the send path knows."""
    scheduler = Scheduler()
    net = cls(
        scheduler,
        HybridCloudDelayModel(NetworkConfig()),
        RngFactory(seed),
        Trace(wire),
        egress_bandwidth=NetworkConfig().egress_bandwidth,
        priority_threshold=NetworkConfig().small_threshold,
    )
    for node in range(5):
        net.attach(node, lambda src, msg: None)
    net.take_down(4)
    net.set_partition([{0, 1, 2, 4}, {3}])
    net.add_filter(lambda src, dst, msg, size: not (src == 1 and dst == 2))
    net.add_delay_policy(lambda src, dst, msg, size, delay: None if dst == 0 else delay)
    net.add_delay_policy(lambda src, dst, msg, size, delay: delay * 2)
    net.set_delay_observer(1, lambda src, msg, size, latency: None)
    return scheduler, net


def _drive(net, seed):
    """The same scripted mix of sends and broadcasts; returns the offers made
    by a sender that is up (a down sender's are not counted anywhere)."""
    rng = random.Random(seed)
    signer = _signer()
    vote = VoteMsg(vote=Vote.create(signer, "alterbft", 3, 7, b"\x01" * 32))
    payload = PayloadMsg(epoch=2, height=5, block_hash=b"\x22" * 32, payload=None)
    large = ProbeMsg(probe_id=1, sent_at=0.0, padding=b"\x00" * 20_000)
    counted = 0
    for _ in range(300):
        src = rng.randrange(6)  # node 5 was never attached
        msg = rng.choice((vote, vote, payload, large))
        if rng.random() < 0.5:
            net.send(src, rng.randrange(5), msg)
        else:
            net.broadcast(src, msg, include_self=rng.random() < 0.5)
        counted += src != 4
    return counted


class TestOneLoopAgainstPerCopySendPath:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_trace_accounting_and_schedule(self, seed, monkeypatch):
        calls = {"account": 0}

        def counting(cls, method):
            inner = cls.__dict__[method]

            def wrapper(self, *args, **kwargs):
                calls[method] += 1
                return inner(self, *args, **kwargs)

            monkeypatch.setattr(cls, method, wrapper)

        oracle_sched, oracle_net = _faulty_network(
            OracleNetwork, OracleAccountant(NetworkConfig().small_threshold), seed
        )
        _drive(oracle_net, seed)
        # Wrapped by name on the class, the way the benchmark's tracer does.
        counting(WireAccountant, "account")
        sched, net = _faulty_network(
            SimNetwork, WireAccountant(NetworkConfig().small_threshold), seed
        )
        offers = _drive(net, seed)

        assert calls == {"account": offers}
        assert net.trace.counters == oracle_net.trace.counters
        assert net.trace.fingerprint() == oracle_net.counts.fingerprint(
            oracle_net.trace.counters
        )
        for kind in ("msg_partitioned", "msg_filtered", "msg_dropped"):
            assert net.trace.counters[kind] > 0, kind
        assert net.wire.queue_samples
        assert_same_accounting(net.wire, oracle_net.wire)
        assert net.wire.bytes_total == oracle_net.counts.counters["bytes"]
        assert net.wire.msgs_total == oracle_net.counts.counters["messages"]

        def entries(scheduler):
            return sorted(
                (time, seq, fn.__name__, args[:3]) for time, seq, _, fn, args in scheduler._queue
            )

        assert entries(sched) == entries(oracle_sched)
        assert len(entries(sched)) > 200
        assert {name for _, _, name, _ in entries(sched)} == {"_deliver", "_deliver_observed"}


# ---------------------------------------------------------------------------
# Live seeded run: telescoping, trace agreement, contract adherence
# ---------------------------------------------------------------------------


class TestLiveRun:
    @pytest.fixture(scope="class")
    def counted_run(self):
        """A seeded run, its offers also counted the way ``Trace`` did."""
        cluster = build_cluster(GOLDEN_RUN)
        counts = count_offers(cluster.network)
        cluster.start()
        cluster.run()
        return cluster, counts

    @pytest.fixture(scope="class")
    def cluster(self, counted_run):
        return counted_run[0]

    def test_telescoping_invariant(self, cluster):
        snapshot = cluster.wire.snapshot()
        assert validate_wire_snapshot(snapshot) == []
        total = snapshot["totals"]["bytes"]
        assert total > 0
        # Belt and braces beyond the validator: re-sum two axes by hand.
        assert sum(r["bytes"] for r in snapshot["links"]) == total
        assert sum(r["bytes"] for r in snapshot["classes"]) == total

    def test_totals_agree_with_trace_counters(self, counted_run):
        cluster, counts = counted_run
        assert cluster.wire.bytes_total == counts.counters["bytes"]
        assert cluster.wire.msgs_total == counts.counters["messages"]

    def test_per_class_totals_agree_with_trace(self, counted_run):
        cluster, counts = counted_run
        assert dict(cluster.wire.class_msgs) == dict(counts.messages_by_type)

    def test_sender_totals_agree_with_trace(self, counted_run):
        cluster, counts = counted_run
        assert dict(cluster.wire.sender_bytes) == dict(counts.bytes_sent_by_node)

    def test_fingerprint_agrees_with_trace(self, counted_run):
        cluster, counts = counted_run
        assert cluster.trace.fingerprint() == counts.fingerprint(cluster.trace.counters)

    def test_observed_phases_within_declared_contract(self, cluster):
        observed = {p for p, n in cluster.wire.phase_bytes.items() if n}
        assert observed <= wire_phases_for("alterbft")

    def test_leader_egress_share_bounds(self, cluster):
        n = cluster.config.protocol_config.n
        share = cluster.wire.leader_egress_share()
        assert 1.0 / n <= share <= 1.0

    def test_report_rows_render(self, cluster):
        snapshot = cluster.wire.snapshot()
        assert class_rows(snapshot) and phase_rows(snapshot)
        assert sender_rows(snapshot) and link_rows(snapshot)
        shares = [r["share_%"] for r in phase_rows(snapshot)]
        assert abs(sum(shares) - 100.0) < 1.0

    def test_all_messages_small_at_this_operating_point(self, cluster):
        """At 500 tps / 512 B txs AlterBFT's split keeps headers and
        votes under the δ threshold; only payloads may cross it."""
        small = cluster.wire.class_size_bytes
        assert small.get(("ProposalHeaderMsg", "large"), 0) == 0
        assert small.get(("VoteMsg", "large"), 0) == 0


class TestInertness:
    def test_fingerprint_identical_with_wire_accounting_on(self):
        """Read from the accountant, the fingerprint of the golden run is
        the one pinned when the trace counted messages itself."""
        cluster = _run_cluster()
        assert cluster.fingerprint() == GOLDEN_FINGERPRINT

    def test_accountant_always_present(self):
        cluster = build_cluster(GOLDEN_RUN)
        assert isinstance(cluster.wire, WireAccountant)
        assert cluster.wire is cluster.trace.wire is cluster.network.wire


# ---------------------------------------------------------------------------
# Snapshot IO: the run file's round trip, corruption detection
# ---------------------------------------------------------------------------


class TestSnapshotIO:
    @pytest.fixture(scope="class")
    def snapshot(self):
        cluster = _run_cluster()
        return cluster.wire.snapshot(
            meta={"protocol": "alterbft", "seed": 7, "committed_blocks": 3}
        )

    def test_jsonl_round_trip(self, snapshot, tmp_path):
        path = os.path.join(tmp_path, "trace.jsonl")
        write_jsonl(path, SpanRecorder(), snapshot)
        meta, _, loaded = read_jsonl(path)
        assert loaded == snapshot and meta == snapshot["meta"]
        assert validate_wire_snapshot(loaded) == []

    def test_wire_drilldown_is_clean_with_every_subsystem_recording(self, tmp_path, capsys):
        """``repro.obs wire`` checks observed phases against the declared
        contract; a run with dissemination + guard + checkpointing on puts
        bytes in all three subsystem phases and must still exit clean."""
        from repro.obs.__main__ import main as obs_main

        record = ["record", "--protocol", "alterbft", "--rate", "300", "--duration", "1.5"]
        flags = ["--guard", "--dissemination", "--checkpoint-interval", "4"]
        assert obs_main(record + flags + ["--seed", "7", "--out-dir", str(tmp_path)]) == 0
        path = os.path.join(tmp_path, "trace.jsonl")
        observed = {r["phase"] for r in read_jsonl(path)[2]["phases"] if r["bytes"]}
        assert set().union(*map(_phases, SUBSYSTEMS)) <= observed
        capsys.readouterr()
        assert obs_main(["wire", path]) == 0
        out = capsys.readouterr().out
        assert "telescoping check: ok" in out and "INVALID" not in out

    def test_validator_catches_corruption(self, snapshot):
        import copy

        bad = copy.deepcopy(snapshot)
        bad["classes"][0]["bytes"] += 1
        assert validate_wire_snapshot(bad)
        bad = copy.deepcopy(snapshot)
        bad["senders"][0]["msgs"] += 7
        assert validate_wire_snapshot(bad)
        bad = copy.deepcopy(snapshot)
        bad["schema"] = 99
        assert any("schema" in p for p in validate_wire_snapshot(bad))
