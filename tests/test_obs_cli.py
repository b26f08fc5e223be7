"""``python -m repro.obs`` end to end: record → report/validate/drill-down."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.analyze import assemble_lifecycles
from repro.obs.export import read_jsonl, to_chrome_trace, write_jsonl
from repro.obs.wire import validate_wire_snapshot


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One small seeded recording shared by every CLI test."""
    out_dir = tmp_path_factory.mktemp("obs")
    rc = obs_main(
        [
            "record",
            "--protocol",
            "alterbft",
            "--rate",
            "300",
            "--duration",
            "1.5",
            "--seed",
            "7",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert rc == 0
    return out_dir


def _corrupt(recorded, tmp_path, record, corrupt):
    """A copy of the recorded trace with its first ``record`` line replaced
    by ``corrupt(that record)``; returns the copy and that line's number."""
    lines = (recorded / "trace.jsonl").read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if f'"record": "{record}"' in line)
    lines[i] = json.dumps(corrupt(json.loads(lines[i])))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    return bad, i + 1


class TestCli:
    def test_record_writes_both_formats(self, recorded):
        assert sorted(p.name for p in recorded.iterdir()) == ["trace.jsonl", "trace_chrome.json"]
        meta, recorder, wire = read_jsonl(str(recorded / "trace.jsonl"))
        assert meta["protocol"] == "alterbft"
        assert meta["delta"] > 0 and meta["committed_blocks"] > 0
        assert len(recorder.events) > 0 and len(recorder.messages) > 0
        assert wire["meta"] == meta and validate_wire_snapshot(wire) == []

    def test_trace_carries_the_runs_wire_snapshot(self, recorded):
        """The snapshot read back is the one the recorded run's accountant
        gives for the file's meta."""
        from repro.obs.__main__ import build_parser
        from repro.runner.cli import config_from_args
        from repro.runner.cluster import build_cluster

        args = build_parser().parse_args(
            ["record", "--rate", "300", "--duration", "1.5", "--seed", "7"]
        )
        cluster = build_cluster(dataclasses.replace(config_from_args(args), observability=True))
        cluster.start()
        cluster.run()
        meta, _, wire = read_jsonl(str(recorded / "trace.jsonl"))
        assert wire == cluster.wire.snapshot(meta)

    def test_report_passes_sum_check(self, recorded, capsys):
        rc = obs_main(["report", str(recorded / "trace.jsonl")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[OK]" in out
        assert "per-block phase breakdown" in out
        assert "2d_wait" in out

    def test_validate_both_formats(self, recorded, capsys):
        """``validate`` checks the run file, and the Chrome view ``record``
        wrote beside it is the rendering ``validate`` checks."""
        rc = obs_main(["validate", str(recorded / "trace.jsonl")])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count(": ok") == 1
        meta, recorder, _ = read_jsonl(str(recorded / "trace.jsonl"))
        chrome = json.loads((recorded / "trace_chrome.json").read_text())
        assert chrome == json.loads(json.dumps(to_chrome_trace(recorder, meta)))

    def test_validate_rejects_corruption(self, recorded, tmp_path, capsys):
        """An event before time zero renders as a Chrome event with a
        negative timestamp, which the Chrome validator rejects."""
        bad, _ = _corrupt(recorded, tmp_path, "event", lambda event: {**event, "t": -1.0})
        rc = obs_main(["validate", str(bad)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "INVALID" in out and "non-negative" in out

    @pytest.mark.parametrize(
        "record, corrupt, problem",
        [
            ("event", lambda event: [1, 2], "{where}: not a JSON object"),
            ("event", lambda event: {**event, "t": None},
             "{where}: field 't' is None, not a number"),
            ("class", lambda row: {**row, "bytes": row["bytes"] + 1},
             "telescoping violated on 'classes'"),
        ],
        ids=["not-an-object", "null-time", "class-row-one-byte-over"],
    )
    def test_validate_reports_a_bad_line(
        self, recorded, tmp_path, capsys, record, corrupt, problem
    ):
        """A malformed line, or a row that breaks the wire telescoping, is
        a validation failure, not a crash."""
        bad, lineno = _corrupt(recorded, tmp_path, record, corrupt)
        rc = obs_main(["validate", str(bad)])
        captured = capsys.readouterr()
        assert rc == 1
        assert f"{bad}: INVALID" in captured.out
        assert problem.format(where=f"{bad}:{lineno}") in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_block_drilldown(self, recorded, capsys):
        _, recorder, _ = read_jsonl(str(recorded / "trace.jsonl"))
        lifecycles = assemble_lifecycles(recorder.events)
        committed = next(
            life for life in lifecycles.values() if life.first_committer() is not None
        )
        rc = obs_main(["block", str(recorded / "trace.jsonl"), committed.hex[:10]])
        out = capsys.readouterr().out
        assert rc == 0
        assert "slowest phase" in out
        assert "per-replica milestones" in out

    @pytest.mark.parametrize("protocol", ["alterbft", "hotstuff"])
    def test_block_committed_without_a_proposal(self, protocol, tmp_path, capsys):
        """An equivocating leader sends its variants without proposing
        them, so the committed one has no propose mark: the drill-down
        prints the per-replica milestones instead of a phase breakdown."""
        out_dir = tmp_path / protocol
        rc = obs_main(
            ["record", "--protocol", protocol, "--rate", "300", "--duration", "1.5",
             "--seed", "3", "--fault", "1:equivocate", "--out-dir", str(out_dir)]
        )
        assert rc == 0
        _, recorder, _ = read_jsonl(str(out_dir / "trace.jsonl"))
        unproposed = [
            life for life in assemble_lifecycles(recorder.events).values()
            if life.first_committer() is not None and life.propose_time is None
        ]
        assert unproposed
        capsys.readouterr()
        rc = obs_main(["block", str(out_dir / "trace.jsonl"), unproposed[0].hex[:12]])
        out = capsys.readouterr().out
        assert rc == 0
        assert "proposal was never recorded" in out and "commit" in out

    def test_block_unknown_prefix(self, recorded, capsys):
        rc = obs_main(["block", str(recorded / "trace.jsonl"), "ffffffffffff"])
        assert rc == 1

    def test_record_refuses_an_uncarried_flag(self, tmp_path, capsys):
        """A flag the protocol does not carry is the run command's error
        message and exit code 2, not a traceback."""
        rc = obs_main(["record", "--protocol", "pbft", "--guard", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: pbft does not carry guard (guard_enabled=True)\n"
        assert not list(tmp_path.iterdir())

    def test_epochs(self, recorded, capsys):
        rc = obs_main(["epochs", str(recorded / "trace.jsonl")])
        assert rc == 0  # honest run: typically "no epoch changes"

    def test_stragglers(self, recorded, capsys):
        rc = obs_main(["stragglers", str(recorded / "trace.jsonl")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stragglers:" in out

    def test_headroom_clean_run(self, recorded, capsys):
        rc = obs_main(["headroom", str(recorded / "trace.jsonl")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Δ violations: 0" in out

    def test_headroom_tight_delta_flags_violations(self, recorded, capsys):
        # An artificially tiny Δ must flag violations and exit 2.
        rc = obs_main(
            ["headroom", str(recorded / "trace.jsonl"), "--delta", "0.0000001"]
        )
        assert rc == 2

    def test_wire_with_an_unregistered_protocol_skips_the_contract(self, tmp_path, capsys):
        from repro.obs.recorder import SpanRecorder
        from repro.obs.wire import WireAccountant

        path = str(tmp_path / "trace.jsonl")
        snapshot = WireAccountant(small_threshold=4096).snapshot(meta={"protocol": "nope"})
        write_jsonl(path, SpanRecorder(), snapshot)
        assert obs_main(["wire", path]) == 0
        assert "contract not checked" in capsys.readouterr().out


class TestSharedScenarioArguments:
    """``alterbft-bench run`` and ``repro.obs record`` describe a run with
    one set of options and build it through one function."""

    COMMON = (
        "--f 1 --rate 800 --duration 4 --seed 3 --fault 1:crash@1.0 --fault 2:slow-link@1:2 "
        "--guard --checkpoint-interval 4 --pipeline-depth 1"
    ).split()

    def _parsers(self):
        from repro.obs.__main__ import build_parser as obs_parser
        from repro.runner.cli import build_parser as run_parser

        return (
            (run_parser(), ["run", "sync-hotstuff"]),
            (obs_parser(), ["record", "--protocol", "sync-hotstuff"]),
        )

    def test_same_arguments_same_run(self):
        from repro.bench.common import make_config
        from repro.runner.cli import config_from_args

        run, record = (
            config_from_args(parser.parse_args(head + self.COMMON))
            for parser, head in self._parsers()
        )
        assert run == record
        assert run.faults == ((1, "crash@1.0"), (2, "slow-link@1:2"))
        # Both size Sync HotStuff's Δ the way every experiment does.
        assert run.protocol_config.delta == make_config("sync-hotstuff").protocol_config.delta

    def test_bad_fault_is_a_usage_error_in_both(self, capsys):
        for parser, head in self._parsers():
            with pytest.raises(SystemExit) as exit_info:
                parser.parse_args(head + ["--fault", "x:crash"])
            assert exit_info.value.code == 2
            assert "bad fault 'x:crash': want REPLICA:BEHAVIOR" in capsys.readouterr().err
