"""Experiment-suite plumbing: configs, claims, rendering, CLI."""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Iterator

import pytest

from repro.bench import __main__ as bench_cli
from repro.bench import e1_delay_characterization
from repro.bench.claims import NOT_REPRODUCED, PARTLY, REPRODUCED, Check, Claim, failures, headline
from repro.bench.common import (
    ALL_PROTOCOLS,
    ExperimentOutput,
    block_bytes,
    delta_big,
    delta_small,
    make_config,
    ratio,
)
from repro.bench.suite import EXPERIMENTS, render_experiments_md
from repro.runner.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


class TestCommon:
    def test_make_config_valid_for_every_protocol(self):
        for protocol in ALL_PROTOCOLS:
            make_config(protocol).validate()

    def test_bounds_derivation(self):
        assert delta_small() == pytest.approx(0.005)
        assert delta_big(block_bytes(400, 512)) > 10 * delta_small()

    def test_block_bytes_scales(self):
        assert block_bytes(100, 512) > block_bytes(10, 512)

    def test_delta_assignment_per_protocol(self):
        alter = make_config("alterbft")
        sync = make_config("sync-hotstuff")
        assert alter.protocol_config.delta == pytest.approx(delta_small())
        assert sync.protocol_config.delta > 10 * alter.protocol_config.delta

    def test_fault_plumbing(self):
        config = make_config("alterbft", faults=((1, "crash@1.0"),))
        config.validate()
        assert config.faults == ((1, "crash@1.0"),)

    def test_ratio(self):
        assert ratio(10, 2) == 5.0
        assert ratio(1, 0) == float("inf")


class TestSuite:
    def test_every_experiment_has_expectation(self):
        """Every experiment declares a claim, each with the paper's sentence."""
        assert [eid for eid, _ in EXPERIMENTS] == [f"E{i}" for i in range(1, 14)]
        for eid, module in EXPERIMENTS:
            assert module.CLAIMS and all(c.paper.strip() for c in module.CLAIMS), eid

    def test_render_markdown(self):
        holding = Claim("The x claim.", REPRODUCED, (Check("x read", headline("x"), ">", 2),))
        failing = Claim("The y claim.", PARTLY, (
            Check("y read", headline("y"), ">=", 0.5),
            Check("z read", headline("z"), "[]", (0, 1), misses=True),
        ))
        rows = [{"a": 1, "b": 2.5}, {"a": 2, "variant": "chunked"}]
        headlines = {"x": 3, "y": 0.25, "z": 1}
        output = ExperimentOutput("E1", "Demo", rows, headlines, (holding, failing))
        text = render_experiments_md([output], fast=True)
        assert "## E1 — Demo" in text and "x = 3" in text
        assert "| a | b | variant |" in text  # a later row's column is kept
        assert "The x claim.\n\n**Measured: reproduced.**\n- x read: 3 (> 2) — holds" in text
        # Its verdict reads as declared, but each check reads the other
        # way round: the claim fails, and each line says so.
        assert (
            "**Paper:** The y claim.\n\n**Measured: partly reproduced.**\n"
            "- y read: 0.25 (≥ 0.5) — misses (declared to hold)\n"
            "- z read: 1 (in [0, 1]) — holds (declared to miss)"
        ) in text
        assert failures(output) == [failing]

    def test_a_verdict_must_match_its_checks(self):
        miss = Check("x", headline("absent"), ">", 0, misses=True)  # unreadable: misses
        with pytest.raises(ValueError, match="not reproduced"):
            Claim("p", REPRODUCED, (miss,))
        claim = Claim("p", NOT_REPRODUCED, (miss,))
        assert claim.holds(ExperimentOutput("E0", "t", []))
        text = render_experiments_md([ExperimentOutput("E0", "t", [], {}, (claim,))], fast=True)
        assert "- x: unreadable (KeyError: 'absent') (> 0) — misses\n" in text

    def test_e1_exits_0_and_1_when_its_predicate_fails(self, monkeypatch, capsys):
        assert bench_cli.main(["--only", "E1"]) == 0
        (claim,) = e1_delay_characterization.CLAIMS
        broken = dataclasses.replace(claim.checks[0], bound=1.0)
        monkeypatch.setattr(e1_delay_characterization, "CLAIMS", (
            dataclasses.replace(claim, checks=(broken,) + claim.checks[1:]),
        ))
        assert bench_cli.main(["--only", "E1"]) == 1
        assert "E1: declared 'reproduced' does not hold" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            bench_cli.main(["--only", "E99"])


def _headline_asserts(tree: ast.AST) -> Iterator[int]:
    """Line of every ``assert`` whose test reads ``<something>.headline[...]``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert) and any(
            isinstance(sub, ast.Subscript)
            and isinstance(sub.value, ast.Attribute)
            and sub.value.attr == "headline"
            for sub in ast.walk(node.test)
        ):
            yield node.lineno


def _identifiers(tree: ast.AST) -> Iterator[str]:
    """Every name a module binds or reads, keyword names included."""
    for node in ast.walk(tree):
        for field in ("id", "attr", "arg", "asname", "name"):
            if isinstance(getattr(node, field, None), str):
                yield getattr(node, field)


def test_each_claim_is_declared_once():
    """The claims live in the ``bench/e*.py`` declarations only: no assert
    wrapper per experiment, no table of expectations, no prose field, and
    no assert on a headline anywhere."""
    assert sorted(ROOT.glob("benchmarks/bench_e*.py")) == []
    assert "notes" not in {f.name for f in dataclasses.fields(ExperimentOutput)}
    for top in ("src", "tests", "scripts", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names = set(_identifiers(tree))
            assert "PAPER_EXPECTATIONS" not in names, path
            assert not (path.parent.name == "bench" and "notes" in names), path
            assert list(_headline_asserts(tree)) == [], path


def test_the_finders_see_each_form():
    tree = ast.parse(
        "assert out.headline['x'] > 1\n"
        "assert 0.1 < output.headline['y'] < 5\n"
        "assert all(r for r in rows) and o.headline['z']\n"
        "x = out.headline['x']\n"
        "assert x > 1\n"
    )
    assert list(_headline_asserts(tree)) == [1, 2, 3]
    for spelling in (
        "PAPER_EXPECTATIONS = {}",
        "from repro.bench.suite import PAPER_EXPECTATIONS",
        "suite.PAPER_EXPECTATIONS['E1']",
    ):
        assert "PAPER_EXPECTATIONS" in set(_identifiers(ast.parse(spelling))), spelling
    assert "notes" in set(_identifiers(ast.parse("ExperimentOutput('E1', 't', [], notes='n')")))
    assert "PAPER_EXPECTATIONS" not in set(_identifiers(ast.parse("'PAPER_EXPECTATIONS'")))


@pytest.mark.slow
def test_experiments_md_is_what_the_suite_writes(tmp_path):
    """``python -m repro.bench --write-md`` in fast mode writes the
    committed EXPERIMENTS.md byte for byte, with every declared verdict
    holding (~2 min)."""
    written = tmp_path / "EXPERIMENTS.md"
    assert bench_cli.main(["--write-md", str(written)]) == 0
    committed = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert written.read_text(encoding="utf-8") == committed


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "alterbft", "--f", "2", "--fault", "1:crash@2"])
        assert args.protocol == "alterbft" and args.f == 2
        # `suite` and `check` hand their whole argv to another module's
        # main (`main` dispatches them before this parser runs).
        assert parser.parse_args(["suite"]).command == "suite"
        args = parser.parse_args(["probe", "--samples", "100"])
        assert args.samples == 100

    def test_suite_is_the_bench_command_line(self, capsys):
        from repro.runner.cli import main

        assert main(["suite", "--only", "E1"]) == 0
        assert "**Measured: reproduced.**" in capsys.readouterr().out

    def test_probe_command_runs(self, capsys):
        from repro.runner.cli import main

        assert main(["probe", "--samples", "50"]) == 0
        out = capsys.readouterr().out
        assert "size_B" in out

    def test_run_command_runs(self, capsys):
        from repro.runner.cli import main

        rc = main(
            [
                "run",
                "alterbft",
                "--rate",
                "200",
                "--duration",
                "3.0",
                "--warmup",
                "0.5",
                "--tx-size",
                "128",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "alterbft" in out

    def test_run_command_with_fault(self, capsys):
        from repro.runner.cli import main

        rc = main(
            [
                "run",
                "alterbft",
                "--rate",
                "200",
                "--duration",
                "4.0",
                "--warmup",
                "0.5",
                "--fault",
                "1:crash@1.0",
            ]
        )
        assert rc == 0
