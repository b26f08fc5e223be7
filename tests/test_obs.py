"""The observability subsystem: recorder, metrics, analysis, export, CLI.

Includes the golden A/B inertness check: a seeded run with observability
enabled must produce a trace fingerprint byte-identical to the same run
with it disabled (and to the committed golden value) — instrumentation
must never perturb the simulation.
"""

from __future__ import annotations

import collections
import dataclasses
import json

import pytest

from repro.bench.common import make_config
from repro.obs.analyze import (
    PHASE_NAMES,
    assemble_lifecycles,
    delta_headroom,
    epoch_timeline,
    guard_timeline,
    phase_durations,
    recovery_timeline,
    span_overlap_rows,
    straggler_rows,
    summarize_recording,
)
from repro.obs.export import (
    read_jsonl,
    to_chrome_trace,
    validate_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.recorder import (
    MARK_CERTIFY,
    MARK_COMMIT,
    MARK_HEADER,
    MARK_PAYLOAD,
    MARK_PROPOSE,
    MARK_VOTE,
    MARK_WINDOW,
    RECORDED_ONLY,
    MsgSample,
    SpanRecorder,
)
from repro.obs.wire import WireAccountant
from repro.runner.cluster import build_cluster
from repro.runner.experiment import run_experiment
from tests.conftest import quick_config
from tests.test_perf_hotpath import (
    FENCE_A,
    FENCE_A_FINGERPRINT,
    FENCE_B,
    FENCE_B_FINGERPRINT,
    FLAGS_ON,
    GOLDEN_FINGERPRINT,
    GOLDEN_FINGERPRINT_FLAGS_ON,
    _run_cluster,
    _run_fingerprint,
)


# ---------------------------------------------------------------------------
# Metrics primitives
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(3)
        assert c.value == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        g = Gauge()
        g.set(2.5)
        assert g.value == 2.5

    def test_histogram_basic(self):
        h = Histogram((1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 10.0):
            h.observe(v)
        assert h.count == 4
        assert h.min == 0.5 and h.max == 10.0
        assert h.mean == pytest.approx(3.75)

    def test_histogram_quantiles_bounded(self):
        h = Histogram(DEFAULT_LATENCY_BUCKETS)
        samples = [0.001, 0.002, 0.004, 0.008, 0.016]
        for v in samples:
            h.observe(v)
        assert h.quantile(0.0) == pytest.approx(min(samples))
        assert h.quantile(1.0) == pytest.approx(max(samples))
        assert min(samples) <= h.quantile(0.5) <= max(samples)

    def test_histogram_single_sample(self):
        h = Histogram((1.0,))
        h.observe(0.25)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(0.25)

    def test_registry_types_and_prefixes(self):
        reg = MetricsRegistry()
        reg.counter("a/x").inc()
        reg.gauge("g/y").set(1.0)
        with pytest.raises(TypeError):
            reg.gauge("a/x")
        assert reg.get("a/x").value == 1 and reg.get("g/y").value == 1.0
        assert reg.get("g/x") is None

# ---------------------------------------------------------------------------
# Phase assembly and clamping
# ---------------------------------------------------------------------------


def _mark_all(rec, block, node, times):
    kinds = (MARK_HEADER, MARK_PAYLOAD, MARK_VOTE, MARK_CERTIFY, MARK_WINDOW, MARK_COMMIT)
    for kind, t in zip(kinds, times):
        rec.mark(t, kind, node, block)


class TestAnalyze:
    def test_phase_durations_telescope(self):
        milestones = {
            MARK_PROPOSE: 1.0,
            MARK_HEADER: 1.1,
            MARK_PAYLOAD: 1.3,
            MARK_VOTE: 1.35,
            MARK_CERTIFY: 1.5,
            MARK_WINDOW: 1.9,
            MARK_COMMIT: 1.95,
        }
        durations = phase_durations(milestones)
        assert durations is not None
        assert sum(durations.values()) == pytest.approx(0.95)
        assert durations["header"] == pytest.approx(0.1)
        assert durations["2d_wait"] == pytest.approx(0.4)

    def test_phase_durations_clamp_out_of_order(self):
        # Payload arrived before the header: the payload phase clamps to
        # zero width and the sum still telescopes exactly.
        milestones = {
            MARK_PROPOSE: 1.0,
            MARK_HEADER: 1.2,
            MARK_PAYLOAD: 1.1,  # before header
            MARK_COMMIT: 2.0,
        }
        durations = phase_durations(milestones)
        assert durations["payload"] == 0.0
        assert sum(durations.values()) == pytest.approx(1.0)

    def test_phase_durations_need_anchors(self):
        assert phase_durations({MARK_PROPOSE: 1.0}) is None
        assert phase_durations({MARK_COMMIT: 1.0}) is None

    def test_assemble_first_mark_wins(self):
        rec = SpanRecorder()
        rec.mark(1.0, MARK_PROPOSE, 0, b"\x01" * 32, epoch=1, height=1)
        rec.mark(2.0, MARK_PROPOSE, 0, b"\x01" * 32)  # duplicate: ignored
        rec.mark(1.2, MARK_COMMIT, 1, b"\x01" * 32)
        lifecycles = assemble_lifecycles(rec.events)
        life = lifecycles[b"\x01" * 32]
        assert life.propose_time == 1.0
        assert life.proposer == 0 and life.height == 1 and life.epoch == 1
        assert life.first_committer() == (1, 1.2)

    def test_summarize_recording_sums_match(self):
        rec = SpanRecorder()
        block = b"\x02" * 32
        rec.mark(1.0, MARK_PROPOSE, 0, block, epoch=1, height=1)
        _mark_all(rec, block, 0, (1.01, 1.02, 1.03, 1.05, 1.09, 1.10))
        _mark_all(rec, block, 1, (1.02, 1.03, 1.04, 1.06, 1.10, 1.12))
        summary = summarize_recording(rec, delta=0.005, small_threshold=4096)
        [row] = summary.block_rows
        assert row["committer"] == 0  # first committer wins
        assert row["total_ms"] == pytest.approx(row["e2e_ms"])
        assert row["e2e_ms"] == pytest.approx(100.0)

    def test_epoch_timeline_causes(self):
        rec = SpanRecorder()
        rec.mark(1.0, "epoch_timeout", 0, None, epoch=1)
        rec.mark(1.0, "blame", 0, None, epoch=1)
        rec.mark(1.1, "blame", 1, None, epoch=1)
        rec.mark(1.2, "epoch_change", 0, None, epoch=1)
        rec.mark(1.3, "epoch_enter", 0, None, epoch=2)
        rec.mark(5.0, "equivocation_detected", 2, None, epoch=4)
        rec.mark(5.1, "epoch_change", 2, None, epoch=4)
        rows = epoch_timeline(rec.events)
        assert [r["epoch"] for r in rows] == [1, 4]
        assert rows[0]["cause"] == "timeout"
        assert rows[0]["blamers"] == "0,1"
        assert rows[0]["changed_at"] == 1.2
        assert rows[0]["next_entered_at"] == 1.3
        assert rows[1]["cause"] == "equivocation"

    def test_straggler_detection(self):
        rec = SpanRecorder()
        for i in range(4):
            block = bytes([i]) * 32
            rec.mark(float(i), MARK_PROPOSE, 0, block, height=i)
            for node in range(3):
                # Replica 2 always commits 100 ms late; 0 and 1 are tight.
                lag = 0.1 if node == 2 else 0.001 * node
                rec.mark(float(i) + 0.01, MARK_HEADER, node, block)
                rec.mark(float(i) + 0.02 + lag, MARK_COMMIT, node, block)
        rows = straggler_rows(assemble_lifecycles(rec.events))
        by_node = {r["replica"]: r for r in rows}
        assert by_node[2]["straggler"] is True
        assert by_node[0]["straggler"] is False

    def test_delta_headroom(self):
        messages = [
            MsgSample(1.0, 0, 1, "VoteMsg", 200, 0.004),
            MsgSample(1.0, 0, 2, "VoteMsg", 200, 0.006),  # over Δ
            MsgSample(1.0, 0, 0, "VoteMsg", 200, 0.5),  # loopback: skipped
            MsgSample(1.0, 0, 1, "PayloadMsg", 9000, 0.5),  # large: skipped
        ]
        result = delta_headroom(messages, delta=0.005, small_threshold=4096)
        assert result["samples"] == 2
        assert result["violations"] == 1
        assert result["max_ms"] == pytest.approx(6.0)
        assert set(result["by_class"]) == {"VoteMsg"}


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def _wire_snapshot(meta):
    return WireAccountant(small_threshold=4096).snapshot(meta)


class TestExport:
    def _recording(self):
        rec = SpanRecorder()
        block = b"\x03" * 32
        rec.mark(1.0, MARK_PROPOSE, 0, block, epoch=1, height=1)
        _mark_all(rec, block, 0, (1.01, 1.02, 1.03, 1.05, 1.09, 1.10))
        rec.mark(2.0, "epoch_change", 1, None, epoch=1)
        rec.message(1.0, 0, 1, "VoteMsg", 200, 0.004)
        return rec

    def test_chrome_trace_valid_and_sums(self):
        rec = self._recording()
        doc = to_chrome_trace(rec, {"protocol": "alterbft"})
        assert validate_chrome_trace(doc) == []
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {s["name"] for s in spans} <= set(PHASE_NAMES)
        # Spans tile [propose, commit] without gaps: durations sum to e2e.
        total_us = sum(s["dur"] for s in spans)
        assert total_us == pytest.approx(0.10 * 1e6)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert instants and instants[0]["name"] == "epoch_change"

    def test_validator_flags_problems(self):
        doc = {"traceEvents": [{"ph": "X", "name": "bogus", "pid": 0, "tid": 0, "ts": -1}]}
        problems = validate_chrome_trace(doc)
        assert any("ts" in p for p in problems)
        assert any("bogus" in p for p in problems)
        assert validate_chrome_trace({}) == ["document has no traceEvents array"]

    def test_jsonl_roundtrip(self, tmp_path):
        rec = self._recording()
        path = str(tmp_path / "trace.jsonl")
        wire = _wire_snapshot({"protocol": "alterbft", "delta": 0.005})
        write_jsonl(path, rec, wire)
        meta, loaded, loaded_wire = read_jsonl(path)
        assert meta == {"protocol": "alterbft", "delta": 0.005}
        assert loaded.events == rec.events
        assert loaded.messages == rec.messages
        assert loaded_wire == wire

    def test_jsonl_header_mismatch_rejected(self, tmp_path):
        rec = self._recording()
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(path, rec, _wire_snapshot({}))
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header["events"] += 1
        (tmp_path / "bad.jsonl").write_text(
            "\n".join([json.dumps(header)] + lines[1:]) + "\n"
        )
        with pytest.raises(ValueError, match="declares"):
            read_jsonl(str(tmp_path / "bad.jsonl"))

    def test_jsonl_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record": "meta", "schema": 99}\n')
        with pytest.raises(ValueError, match="schema"):
            read_jsonl(str(path))

    def test_schema_1_trace_rejected(self, tmp_path):
        """A trace from before the run file carried its wire snapshot."""
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"events": 1, "messages": 0, "record": "meta", "schema": 1}\n'
            '{"kind": "epoch_change", "node": 1, "record": "event", "t": 2.0}\n'
        )
        with pytest.raises(ValueError, match="unsupported schema 1"):
            read_jsonl(str(path))


# ---------------------------------------------------------------------------
# Golden A/B: observability is inert
# ---------------------------------------------------------------------------


class TestInertness:
    def test_fingerprint_identical_with_obs_off(self):
        assert _run_fingerprint() == GOLDEN_FINGERPRINT

    @pytest.mark.parametrize(
        "overrides, golden",
        [
            ({}, GOLDEN_FINGERPRINT),
            (FLAGS_ON, GOLDEN_FINGERPRINT_FLAGS_ON),
            (FENCE_A, FENCE_A_FINGERPRINT),
            (FENCE_B, FENCE_B_FINGERPRINT),
        ],
        ids=["golden", "flags_on", "fence_a", "fence_b"],
    )
    def test_fingerprint_identical_with_obs_on(self, overrides, golden):
        """The load-bearing guarantee: enabling span recording changes
        nothing about the simulation — same messages, same bytes, same
        ledgers, byte-identical fingerprint — on every pinned run."""
        cluster = _run_cluster(observability=True, **overrides)
        assert cluster.obs is not None and len(cluster.obs) > 0
        assert cluster.fingerprint() == golden


#: The network's own counted kinds: no replica reports them.
NETWORK_KINDS = {"msg_partitioned", "msg_filtered", "msg_dropped"}


@pytest.mark.parametrize(
    "overrides",
    [{}, FLAGS_ON, FENCE_A, FENCE_B, dict(f=2, faults=((1, "equivocate"),))],
    ids=["golden", "flags_on", "fence_a", "fence_b", "equivocate"],
)
def test_every_counted_event_is_recorded_once(overrides):
    """A recording holds each counted replica event exactly as often as the
    run counts it, under the same name; what it holds beyond that is the
    recorded-only milestones."""
    cluster = _run_cluster(observability=True, **overrides)
    recorded = collections.Counter(event.kind for event in cluster.obs.events)
    counted = {k: n for k, n in cluster.trace.counters.items() if k not in NETWORK_KINDS}
    assert {kind: recorded[kind] for kind in counted} == counted
    only_recorded = set(recorded) - set(counted)
    assert only_recorded <= set(RECORDED_ONLY)
    if "epoch_change" in counted:
        assert only_recorded == set(RECORDED_ONLY)


# ---------------------------------------------------------------------------
# Live runs: every protocol produces a coherent phase breakdown
# ---------------------------------------------------------------------------


def _observed_result(protocol, duration=3.0, **kwargs):
    cfg = dataclasses.replace(
        quick_config(protocol, duration=duration, **kwargs), observability=True
    )
    return run_experiment(cfg)


class TestLiveRecording:
    def test_alterbft_phase_sums_match_commit_latency(self):
        result = _observed_result("alterbft")
        assert result.obs is not None
        assert result.obs.committed_blocks > 0
        for row in result.obs.block_rows:
            assert row["total_ms"] == pytest.approx(row["e2e_ms"], abs=1e-6)
        # The 2Δ wait dominates AlterBFT commit latency (the paper's story).
        by_phase = {r["phase"]: r for r in result.obs.phase_rows}
        assert by_phase["2d_wait"]["mean_ms"] > by_phase["certify"]["mean_ms"]

    def test_phase_rows_are_exact_percentiles_of_the_block_rows(self):
        from repro.measure.stats import percentile

        result = _observed_result("alterbft")
        rows = result.obs.block_rows
        assert len(rows) > 10
        by_phase = {r["phase"]: r for r in result.obs.phase_rows}
        assert set(by_phase) == set(PHASE_NAMES) | {"e2e"}
        for phase, row in by_phase.items():
            samples = [block[f"{phase}_ms"] for block in rows]
            assert row["count"] == len(samples)
            assert row["p50_ms"] == percentile(samples, 50), phase
            assert row["p99_ms"] == percentile(samples, 99), phase
            assert row["max_ms"] == max(samples), phase
            assert row["mean_ms"] == pytest.approx(sum(samples) / len(samples)), phase

    @pytest.mark.parametrize("protocol", ["hotstuff", "pbft", "sync-hotstuff"])
    def test_baselines_record_lifecycles(self, protocol):
        result = _observed_result(protocol)
        assert result.obs is not None
        assert result.obs.committed_blocks > 0
        for row in result.obs.block_rows:
            assert row["total_ms"] == pytest.approx(row["e2e_ms"], abs=1e-6)

    def test_headroom_no_violations_in_honest_run(self):
        result = _observed_result("alterbft")
        headroom = result.obs.headroom
        assert headroom["samples"] > 0
        assert headroom["violations"] == 0
        assert headroom["headroom_ms"] > 0

    def test_epoch_timeline_on_crash(self):
        result = _observed_result("alterbft", duration=8.0, faults=((1, "crash@2.0"),))
        assert result.obs is not None
        if result.epoch_changes > 0:
            assert result.obs.epoch_rows
            assert result.obs.epoch_rows[0]["cause"] in ("timeout", "equivocation")

    def test_disabled_run_has_no_recorder(self):
        result = run_experiment(quick_config("alterbft", duration=2.0))
        assert result.obs is None


# ---------------------------------------------------------------------------
# Drill-down analyses on the recordings CI's layer-smoke rows make
# ---------------------------------------------------------------------------


def _recording(duration, **kwargs):
    """The events ``python -m repro.obs record`` writes for this run."""
    config = make_config("alterbft", duration=duration, warmup=min(1.0, duration / 4), **kwargs)
    cluster = build_cluster(dataclasses.replace(config, observability=True))
    cluster.start()
    cluster.run()
    return cluster.obs.events


class TestDrillDowns:
    def test_recovery_timeline_shows_the_rejoiner_caught_up(self):
        events = _recording(
            5.0, f=2, rate=400.0, seed=11, faults=((1, "crash-recover@1.0:3.0"),),
            checkpoint_interval=3,
        )
        [row] = recovery_timeline(events)
        assert row["replica"] == 1
        assert row["caught_up"] is True

    def test_guard_timeline_shows_the_install_and_the_at_risk_commits(self):
        events = _recording(
            4.5, rate=300.0, seed=3, faults=((1, "slow-link@1.5:3.0"),), guard_enabled=True
        )
        kinds = {row["event"] for row in guard_timeline(events)}
        assert {"delta_installed", "commit_at_risk"} <= kinds

    @pytest.mark.parametrize("depth", [1, 4])
    def test_span_overlap_sees_the_pipeline_depth(self, depth):
        events = _recording(1.5, rate=2000.0, seed=7, pipeline_depth=depth)
        rows = span_overlap_rows(assemble_lifecycles(events))
        assert max(int(row["max_inflight"]) for row in rows) == depth
