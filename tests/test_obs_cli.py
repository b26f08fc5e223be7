"""``python -m repro.obs`` end to end: record → report/validate/drill-down."""

from __future__ import annotations

import json

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.analyze import assemble_lifecycles
from repro.obs.export import read_jsonl


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


class TestCli:
    def test_record_writes_both_formats(self, recorded):
        assert (recorded / "trace.jsonl").exists()
        assert (recorded / "trace_chrome.json").exists()
        meta, recorder = read_jsonl(str(recorded / "trace.jsonl"))
        assert meta["protocol"] == "alterbft"
        assert meta["delta"] > 0
        assert len(recorder.events) > 0 and len(recorder.messages) > 0

    def test_report_passes_sum_check(self, recorded, capsys):
        rc = obs_main(["report", str(recorded / "trace.jsonl")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[OK]" in out
        assert "per-block phase breakdown" in out
        assert "2d_wait" in out

    def test_validate_both_formats(self, recorded, capsys):
        rc = obs_main(
            [
                "validate",
                str(recorded / "trace.jsonl"),
                str(recorded / "trace_chrome.json"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count(": ok") == 2

    def test_validate_rejects_corruption(self, recorded, tmp_path, capsys):
        doc = json.loads((recorded / "trace_chrome.json").read_text())
        for event in doc["traceEvents"]:
            if event["ph"] == "X":
                event["name"] = "not-a-phase"
                break
        bad = tmp_path / "bad_chrome.json"
        bad.write_text(json.dumps(doc))
        rc = obs_main(["validate", str(bad)])
        assert rc == 1
        assert "INVALID" in capsys.readouterr().out

    def test_block_drilldown(self, recorded, capsys):
        _, recorder = read_jsonl(str(recorded / "trace.jsonl"))
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
        _, recorder = read_jsonl(str(out_dir / "trace.jsonl"))
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
        from repro.obs.wire import WireAccountant, write_wire_jsonl

        path = str(tmp_path / "wire.jsonl")
        snapshot = WireAccountant(small_threshold=4096).snapshot(meta={"protocol": "nope"})
        write_wire_jsonl(path, snapshot)
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
