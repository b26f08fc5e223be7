"""Statistics helpers, metrics collection, report formatting."""

from __future__ import annotations

import pytest

from repro.measure.stats import LatencySummary, cdf_points, mean, percentile, stddev
from repro.runner.metrics import CommitRecord, MetricsCollector
from repro.runner.report import format_table, markdown_table, speedup
from repro.types.block import genesis_block, make_block
from repro.types.transaction import Transaction


class TestPercentile:
    def test_single_sample(self):
        assert percentile([5.0], 50) == 5.0
        assert percentile([5.0], 99) == 5.0

    def test_median_interpolation(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_endpoints(self):
        samples = [3.0, 1.0, 2.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 3.0

    def test_matches_numpy_convention(self):
        numpy = pytest.importorskip("numpy")
        samples = [0.3, 1.2, 5.5, 2.2, 9.1, 0.01, 4.4]
        for q in (10, 25, 50, 75, 90, 99):
            assert percentile(samples, q) == pytest.approx(
                float(numpy.percentile(samples, q))
            )

    def test_errors(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestSummary:
    def test_basic(self):
        summary = LatencySummary.from_samples([0.010, 0.020, 0.030])
        assert summary.count == 3
        assert summary.mean == pytest.approx(0.020)
        assert summary.p50 == pytest.approx(0.020)
        assert summary.max == 0.030

    def test_empty(self):
        summary = LatencySummary.from_samples([])
        assert summary.count == 0 and summary.p99 == 0.0

    def test_millis(self):
        millis = LatencySummary.from_samples([0.5]).as_millis()
        assert millis["p50_ms"] == 500.0

    def test_mean_stddev(self):
        assert mean([1.0, 3.0]) == 2.0
        assert stddev([1.0, 3.0]) == pytest.approx(2.0**0.5)
        assert stddev([1.0]) == 0.0

    def test_cdf(self):
        points = cdf_points([1.0, 2.0, 3.0, 4.0], points=4)
        assert points[-1] == (4.0, 1.0)
        values = [p for p, _ in points]
        assert values == sorted(values)
        assert cdf_points([]) == []

    def test_cdf_ends_at_one_when_the_maximum_repeats(self):
        assert cdf_points([1, 2, 3, 3], points=2) == [(1, 0.25), (3, 0.75), (3, 1.0)]


def tx_at(client, seq, t):
    return Transaction(client_id=client, seq=seq, submitted_at=t, payload=b"x")


class TestMetricsCollector:
    def make_block_at(self, height, parent, txs):
        return make_block(1, height, parent, txs, 0)

    def test_first_commit_wins(self):
        collector = MetricsCollector(warmup=0.0, honest_ids={0, 1})
        block = self.make_block_at(1, genesis_block().block_hash, (tx_at(0, 0, 1.0),))
        collector.observe_commit(0, block, 2.0)
        collector.observe_commit(1, block, 3.0)  # later replica: ignored
        [latency] = collector.tx_latencies(end_time=10.0)
        assert latency == pytest.approx(1.0)

    def test_byzantine_commits_ignored(self):
        collector = MetricsCollector(warmup=0.0, honest_ids={0})
        block = self.make_block_at(1, genesis_block().block_hash, (tx_at(0, 0, 1.0),))
        collector.observe_commit(5, block, 1.5)  # not honest
        assert collector.committed_tx_count(10.0) == 0

    def test_warmup_filtering(self):
        collector = MetricsCollector(warmup=5.0, honest_ids={0})
        early = self.make_block_at(1, genesis_block().block_hash, (tx_at(0, 0, 1.0),))
        collector.observe_commit(0, early, 2.0)
        assert collector.tx_latencies(10.0) == []

    def test_block_latency_from_proposal(self):
        collector = MetricsCollector(warmup=0.0, honest_ids={0})
        block = self.make_block_at(1, genesis_block().block_hash, ())
        collector.note_proposal(block.block_hash, 1.0)
        collector.observe_commit(0, block, 1.4)
        [latency] = collector.block_latencies()
        assert latency == pytest.approx(0.4)

    def test_max_commit_gap(self):
        collector = MetricsCollector(warmup=0.0, honest_ids={0})
        g = genesis_block().block_hash
        b1 = self.make_block_at(1, g, ())
        collector.observe_commit(0, b1, 1.0)
        b2 = make_block(1, 2, b1.block_hash, (), 0)
        collector.observe_commit(0, b2, 4.0)
        assert collector.max_commit_gap(0.0, 5.0) == pytest.approx(3.0)

    def test_max_commit_gap_empty(self):
        collector = MetricsCollector(warmup=0.0, honest_ids={0})
        assert collector.max_commit_gap(0.0, 5.0) == 5.0

    def test_reproposed_block_keeps_first_proposal_time(self):
        # A block re-proposed after a view change (same hash) must keep
        # its original propose time, or latency would shrink.
        collector = MetricsCollector(warmup=0.0, honest_ids={0})
        block = self.make_block_at(1, genesis_block().block_hash, ())
        collector.note_proposal(block.block_hash, 1.0)
        collector.note_proposal(block.block_hash, 2.5)  # re-proposal: ignored
        collector.observe_commit(0, block, 3.0)
        [latency] = collector.block_latencies()
        assert latency == pytest.approx(2.0)

    def test_commit_before_proposal_observed(self):
        # A commit whose proposal was never noted (e.g. a block inherited
        # through state transfer) contributes no block-latency sample.
        collector = MetricsCollector(warmup=0.0, honest_ids={0})
        block = self.make_block_at(1, genesis_block().block_hash, ())
        collector.observe_commit(0, block, 3.0)
        assert collector.block_latencies() == []
        assert collector.committed_blocks() == 1

    def test_byzantine_commit_does_not_anchor_block_latency(self):
        # A Byzantine replica "committing" early must not become the
        # first-commit anchor; latency runs to the first honest commit.
        collector = MetricsCollector(warmup=0.0, honest_ids={0})
        block = self.make_block_at(1, genesis_block().block_hash, ())
        collector.note_proposal(block.block_hash, 1.0)
        collector.observe_commit(7, block, 1.1)  # Byzantine: ignored
        collector.observe_commit(0, block, 2.0)
        [latency] = collector.block_latencies()
        assert latency == pytest.approx(1.0)


class TestReport:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xx"}, {"a": 222, "b": "y"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_column_subset(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_markdown(self):
        text = markdown_table([{"x": 1.5}])
        assert text.splitlines()[0] == "| x |"
        assert "1.50" in text

    def test_columns_default_to_every_rows_keys_in_first_seen_order(self):
        rows = [{"a": 1, "b": 2}, {"a": 3, "variant": "chunked", "b": 4}]
        for text in (format_table(rows), markdown_table(rows)):
            header = text.splitlines()[0]
            assert [c for c in header.replace("|", " ").split()] == ["a", "b", "variant"]
            assert "chunked" in text

    def test_an_empty_latency_sample_prints_a_dash(self):
        from repro.measure.stats import LatencySummary
        from repro.runner.metrics import ms_cell

        empty = LatencySummary.from_samples([])
        measured = LatencySummary.from_samples([0.0, 0.0])
        row = {"lat_p50_ms": ms_cell(empty, "p50"), "blk_lat_p50_ms": ms_cell(measured, "p50")}
        assert row == {"lat_p50_ms": None, "blk_lat_p50_ms": 0.0}
        assert format_table([row]).splitlines()[2].split() == ["—", "0.00"]
        assert markdown_table([row]).splitlines()[2] == "| — | 0.00 |"

    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0
        assert speedup(10.0, 0.0) == float("inf")


class WalkingCollector(MetricsCollector):
    """``observe_commit`` as it was before it returned early on a block
    already seen: every replica's commit walks every transaction."""

    def observe_commit(self, replica_id, block, now):
        if replica_id not in self.honest_ids:
            return
        self.commit_records_by_replica.setdefault(replica_id, []).append(
            (now, block.height, block.block_hash, block.parent)
        )
        if block.block_hash not in self._block_first_commit:
            self._block_first_commit[block.block_hash] = now
        for tx in block.payload.transactions:
            key = (tx.client_id, tx.seq)
            record = self._tx_commits.get(key)
            if record is None:
                self._tx_commits[key] = CommitRecord(
                    submitted_at=tx.submitted_at, first_committed_at=now
                )


def assert_same_collection(collector, reference, end_time):
    assert collector.tx_latencies(end_time) == reference.tx_latencies(end_time)
    assert collector.committed_tx_count(end_time) == reference.committed_tx_count(end_time)
    assert collector.block_latencies() == reference.block_latencies()
    assert collector.commit_records_by_replica == reference.commit_records_by_replica
    assert collector.committed_blocks() == reference.committed_blocks()


class TestCommitWalksABlockOnce:
    def test_seeded_n7_run_collects_what_the_walking_collector_does(self):
        from repro.bench.common import make_config
        from repro.runner.cluster import build_cluster

        config = make_config("alterbft", f=3, rate=800.0, duration=1.5, warmup=0.3, seed=11)
        cluster = build_cluster(config)
        reference = WalkingCollector(config.warmup, cluster.honest_ids)
        for replica in cluster.replicas:
            replica.ledger.add_listener(reference.make_listener(replica.replica_id))
        cluster.start()
        cluster.run()
        reference._block_proposed_at = dict(cluster.collector._block_proposed_at)
        assert cluster.collector.committed_blocks() > 20
        assert len(cluster.collector.commit_records_by_replica) == 7
        assert len(cluster.collector.tx_latencies(config.max_sim_time)) > 100
        assert_same_collection(cluster.collector, reference, config.max_sim_time)

    def test_block_seen_first_by_a_non_honest_replica(self):
        g = genesis_block().block_hash
        block = make_block(1, 1, g, (tx_at(0, 0, 1.0), tx_at(1, 0, 1.2)), 0)
        # The second block repeats a transaction of the first.
        child = make_block(1, 2, block.block_hash, (tx_at(1, 0, 1.2), tx_at(2, 0, 1.4)), 0)
        collectors = [cls(warmup=0.0, honest_ids={0, 1}) for cls in (MetricsCollector, WalkingCollector)]
        for collector in collectors:
            collector.note_proposal(block.block_hash, 1.5)
            collector.observe_commit(7, block, 1.6)  # not honest: leaves no mark
            collector.observe_commit(0, block, 2.0)
            collector.observe_commit(1, block, 2.5)
            collector.observe_commit(1, child, 3.0)
            collector.observe_commit(0, child, 3.5)
        collector, reference = collectors
        assert_same_collection(collector, reference, 10.0)
        assert sorted(collector.tx_latencies(10.0)) == pytest.approx([0.8, 1.0, 1.6])
        assert collector.block_latencies() == pytest.approx([0.5])
