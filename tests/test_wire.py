"""Wire-level bandwidth accounting: repro.obs.wire.

The load-bearing properties pinned here:

* **Telescoping** — every attribution axis (links, classes, phases, size
  classes, senders, receivers, heights, epochs) sums byte-exactly to the
  wire total on a real seeded run; no drill-down silently drops traffic.
* **Trace agreement** — the accountant taps the same site as
  ``Trace.count_message``, so its total equals the fingerprint-bearing
  ``bytes`` counter exactly.
* **Inertness** — a seeded run with wire accounting enabled produces the
  byte-identical golden fingerprint of a run without it.
* **Contract** — each protocol's declared ``WIRE_PHASES`` matches the
  phases derivable from its ``HANDLERS`` map, each subsystem's
  ``WIRE_PHASE`` is the phase of every message it handles, the
  protocol's full contract is the union of the two, and live traffic
  stays inside it.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.bench.common import make_config
from repro.baselines.hotstuff import HotStuffReplica
from repro.baselines.pbft import PBFTReplica
from repro.baselines.sync_hotstuff import SyncHotStuffReplica
from repro.core.protocol import AlterBFTReplica
from repro.obs.wire import (
    SIZE_HISTOGRAM_BOUNDS,
    UNATTRIBUTED,
    WIRE_PHASE_NAMES,
    WireAccountant,
    classify_phase,
    class_rows,
    link_rows,
    phase_rows,
    queue_rows,
    read_wire_jsonl,
    sender_rows,
    to_prometheus_text,
    validate_wire_snapshot,
    write_wire_jsonl,
)
from repro.runner.cluster import build_cluster
from repro.runner.registry import SUBSYSTEMS, subsystems_for, wire_phases_for
from repro.types.block import BlockHeader
from repro.types.messages import (
    BlameMsg,
    PayloadMsg,
    ProposalHeaderMsg,
    StatusMsg,
    VoteMsg,
)
from repro.types.certificates import Blame, Vote
from repro.crypto.keystore import build_cluster_keys

#: Must match tests/test_perf_hotpath.py — the one golden fingerprint.
GOLDEN_FINGERPRINT = "7e7170ae58fb379b5a660462abd2ddc779bfdc9f2e9defd4ec5163290ce77d05"

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


def _run_cluster(protocol: str = "alterbft", **kwargs):
    cfg = dataclasses.replace(
        make_config(protocol, f=1, rate=500.0, duration=1.5, seed=7, **kwargs),
        wire_accounting=True,
    )
    cluster = build_cluster(cfg)
    cluster.start()
    cluster.run()
    return cluster


# ---------------------------------------------------------------------------
# Phase classification and the declared per-protocol contract
# ---------------------------------------------------------------------------


class TestPhaseContract:
    def test_every_handled_class_has_a_phase(self):
        """No consensus message class may fall into 'other'."""
        for owner in ALL_REPLICA_CLASSES + SUBSYSTEMS:
            for msg_cls in owner.HANDLERS:
                phase = classify_phase(msg_cls.__name__)
                assert phase != "other", f"{msg_cls.__name__} unclassified"
                assert phase in WIRE_PHASE_NAMES

    def test_declared_wire_phases_match_handlers(self):
        """The explicit core WIRE_PHASES contract cannot drift from HANDLERS."""
        for cls in ALL_REPLICA_CLASSES:
            assert cls.WIRE_PHASES == cls.handled_wire_phases(), cls.protocol_name

    def test_a_subsystem_owns_one_phase(self):
        """Every message a subsystem handles is accounted to its WIRE_PHASE,
        and no two subsystems (or a subsystem and a core protocol) share one."""
        for subsystem in SUBSYSTEMS:
            assert subsystem.HANDLERS, subsystem.name
            for msg_cls in subsystem.HANDLERS:
                assert classify_phase(msg_cls.__name__) == subsystem.WIRE_PHASE
        phases = [s.WIRE_PHASE for s in SUBSYSTEMS]
        assert len(set(phases)) == len(phases)
        for cls in ALL_REPLICA_CLASSES:
            assert not set(phases) & set(cls.WIRE_PHASES)

    def test_full_contract_is_core_plus_carried_subsystems(self):
        """What ``repro.obs wire`` holds observed traffic to — pinned to the
        values the classes declared before subsystems owned their phases,
        so the contract can never silently get weaker."""
        for cls in ALL_REPLICA_CLASSES:
            carried = subsystems_for(cls.protocol_name)
            expected = set(cls.WIRE_PHASES) | {s.WIRE_PHASE for s in carried}
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
        assert wire_phases_for("hotstuff") == set(HotStuffReplica.WIRE_PHASES)
        assert wire_phases_for("pbft") == set(PBFTReplica.WIRE_PHASES)

    def test_unknown_class_is_other(self):
        assert classify_phase("NoSuchMsg") == "other"

    def test_alterbft_has_separate_payload_phase(self):
        """The split the paper turns on: AlterBFT disseminates payloads
        outside the Δ-bounded propose phase; Sync HotStuff cannot."""
        assert "payload" in AlterBFTReplica.WIRE_PHASES
        assert "payload" not in SyncHotStuffReplica.WIRE_PHASES


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

    def test_merge_sums_and_guards_threshold(self):
        a, b = WireAccountant(4096), WireAccountant(4096)
        msg = StatusMsg(sender=0, new_epoch=1, high_qc=None)
        a.account(0, 1, msg, 10)
        b.account(1, 0, msg, 20)
        b.account(0, 1, msg, 5)
        assert a.merge(b) is a
        assert a.bytes_total == 35
        assert a.link_bytes[(0, 1)] == 15
        assert a.size_hist["StatusMsg"].count == 3
        assert validate_wire_snapshot(a.snapshot()) == []
        with pytest.raises(ValueError):
            a.merge(WireAccountant(small_threshold=999))

    def test_fill_registry(self):
        from repro.obs.metrics import MetricsRegistry

        acct = WireAccountant(4096)
        acct.account(0, 1, StatusMsg(sender=0, new_epoch=1, high_qc=None), 10)
        registry = acct.fill_registry(MetricsRegistry())
        assert registry.counter("wire/bytes_total").value == 10
        assert registry.counter("wire/class_bytes/StatusMsg").value == 10
        assert registry.counter("wire/phase_bytes/epoch_change").value == 10
        hist = registry.get("wire/msg_size/StatusMsg")
        assert hist is not None and hist.count == 1
        assert hist.bounds == SIZE_HISTOGRAM_BOUNDS

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
# Live seeded run: telescoping, trace agreement, contract adherence
# ---------------------------------------------------------------------------


class TestLiveRun:
    @pytest.fixture(scope="class")
    def cluster(self):
        return _run_cluster()

    def test_telescoping_invariant(self, cluster):
        snapshot = cluster.wire.snapshot()
        assert validate_wire_snapshot(snapshot) == []
        total = snapshot["totals"]["bytes"]
        assert total > 0
        # Belt and braces beyond the validator: re-sum two axes by hand.
        assert sum(r["bytes"] for r in snapshot["links"]) == total
        assert sum(r["bytes"] for r in snapshot["classes"]) == total

    def test_totals_agree_with_trace_counters(self, cluster):
        assert cluster.wire.bytes_total == cluster.trace.counters["bytes"]
        assert cluster.wire.msgs_total == cluster.trace.counters["messages"]

    def test_per_class_totals_agree_with_trace(self, cluster):
        assert dict(cluster.wire.class_msgs) == dict(cluster.trace.messages_by_type)

    def test_sender_totals_agree_with_trace(self, cluster):
        assert dict(cluster.wire.sender_bytes) == dict(cluster.trace.bytes_sent_by_node)

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
        """The disabled-path contract, from the enabled side: turning
        wire accounting ON changes nothing the fingerprint witnesses."""
        cluster = _run_cluster()
        ledger = b"".join(
            h
            for replica in cluster.replicas
            if replica.replica_id in cluster.honest_ids
            for h in replica.ledger.all_hashes()
        )
        assert cluster.trace.fingerprint(extra=ledger) == GOLDEN_FINGERPRINT

    def test_accountant_absent_when_disabled(self):
        cfg = make_config("alterbft", f=1, rate=500.0, duration=1.5, seed=7)
        assert cfg.wire_accounting is False
        assert build_cluster(cfg).wire is None


# ---------------------------------------------------------------------------
# Snapshot IO: JSONL round-trip, Prometheus text, corruption detection
# ---------------------------------------------------------------------------


class TestSnapshotIO:
    @pytest.fixture(scope="class")
    def snapshot(self):
        cluster = _run_cluster()
        return cluster.wire.snapshot(
            meta={"protocol": "alterbft", "seed": 7, "committed_blocks": 3}
        )

    def test_jsonl_round_trip(self, snapshot, tmp_path):
        path = os.path.join(tmp_path, "wire.jsonl")
        write_wire_jsonl(path, snapshot)
        loaded = read_wire_jsonl(path)
        assert loaded == snapshot
        assert validate_wire_snapshot(loaded) == []

    def test_prometheus_text(self, snapshot):
        text = to_prometheus_text(snapshot)
        assert f"repro_wire_bytes_total {snapshot['totals']['bytes']}" in text
        assert 'repro_wire_phase_bytes_total{phase="propose"}' in text
        assert 'le="+Inf"' in text
        # Cumulative buckets: the +Inf bucket equals the class count.
        for row in snapshot["classes"]:
            needle = (
                f'repro_wire_message_size_bytes_bucket'
                f'{{class="{row["class"]}",le="+Inf"}} {row["msgs"]}'
            )
            assert needle in text

    def test_wire_drilldown_is_clean_with_every_subsystem_recording(self, tmp_path, capsys):
        """``repro.obs wire`` checks observed phases against the declared
        contract; a run with dissemination + guard + checkpointing on puts
        bytes in all three subsystem phases and must still exit clean."""
        from repro.obs.__main__ import main as obs_main

        record = ["record", "--protocol", "alterbft", "--rate", "300", "--duration", "1.5"]
        flags = ["--wire", "--guard", "--dissemination", "--checkpoint-interval", "4"]
        assert obs_main(record + flags + ["--seed", "7", "--out-dir", str(tmp_path)]) == 0
        path = os.path.join(tmp_path, "wire.jsonl")
        observed = {r["phase"] for r in read_wire_jsonl(path)["phases"] if r["bytes"]}
        assert {s.WIRE_PHASE for s in SUBSYSTEMS} <= observed
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
