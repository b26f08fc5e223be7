"""``alterbft-bench`` — command-line front end.

Subcommands:

* ``run`` — one simulated experiment with explicit parameters.
* ``suite`` — the paper's experiment suite (delegates to
  ``python -m repro.bench``).
* ``probe`` — the cloud delay characterization, printed as a table.
* ``check`` — the verification sweep (delegates to :mod:`repro.check`).

:func:`add_scenario_arguments` / :func:`config_from_args` are the one
place a command line becomes an :class:`~repro.config.ExperimentConfig`;
``python -m repro.obs record`` builds its run through the same pair, and
both commands report a bad configuration through :func:`dispatch`.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import sys
from typing import List, Optional, Tuple

from ..bench.common import make_config
from ..config import ExperimentConfig, NetworkConfig
from ..errors import ConfigError
from ..measure.probe import DEFAULT_PROBE_SIZES, sample_delay_model
from ..measure.stats import LatencySummary
from ..net.delay import HybridCloudDelayModel
from .experiment import run_experiment
from .registry import protocol_names
from .report import format_table


def _parse_fault(spec: str) -> Tuple[int, str]:
    """``REPLICA:BEHAVIOR`` → (replica_id, behavior spec)."""
    replica_part, sep, behavior = spec.partition(":")
    try:
        replica_id = int(replica_part)
    except ValueError:
        sep = ""
    if not sep or not behavior:
        raise argparse.ArgumentTypeError(
            f"bad fault {spec!r}: want REPLICA:BEHAVIOR, e.g. 1:crash-recover@1.0:3.0"
        )
    return replica_id, behavior


def add_scenario_arguments(
    parser: argparse.ArgumentParser, rate: float, duration: float, seed: int
) -> None:
    """The options that describe a run, with the command's own defaults
    for the three it may differ in.  The command names the protocol
    itself (``args.protocol``) and may add ``--tx-size``, ``--max-batch``
    and ``--warmup``; left out, they run at the values set here."""
    parser.set_defaults(tx_size=512, max_batch=400, warmup=None)
    parser.add_argument("--f", type=int, default=1, help="fault budget")
    parser.add_argument("--rate", type=float, default=rate, help="offered tps (0 = saturation)")
    parser.add_argument("--duration", type=float, default=duration)
    parser.add_argument("--seed", type=int, default=seed)
    parser.add_argument(
        "--fault",
        action="append",
        default=[],
        type=_parse_fault,
        metavar="REPLICA:BEHAVIOR",
        help="inject a fault, e.g. 1:crash-recover@1.0:3.0 (repeatable)",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=0,
        metavar="K",
        help="checkpoint every K committed blocks (0 = off)",
    )
    parser.add_argument(
        "--guard",
        action="store_true",
        help="attach the synchrony guard (repro.guard) to every replica",
    )
    parser.add_argument(
        "--pipeline-depth",
        type=int,
        default=1,
        metavar="D",
        help="chained-leader window size (alterbft only; default 1 = classic)",
    )
    parser.add_argument(
        "--dissemination",
        action="store_true",
        help="disseminate payloads as erasure-coded chunk shares (alterbft only)",
    )


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The run a parser built with :func:`add_scenario_arguments` describes.
    Warm-up defaults to a second, or a quarter of a shorter run."""
    warmup = min(1.0, args.duration / 4) if args.warmup is None else args.warmup
    return make_config(
        args.protocol,
        f=args.f,
        rate=args.rate if args.rate > 0 else None,
        tx_size=args.tx_size,
        max_batch=args.max_batch,
        duration=args.duration,
        warmup=warmup,
        seed=args.seed,
        faults=tuple(args.fault),
        checkpoint_interval=args.checkpoint_interval,
        guard_enabled=args.guard,
        pipeline_depth=args.pipeline_depth,
        dissemination=args.dissemination,
    )


def dispatch(args: argparse.Namespace) -> int:
    """Run the subcommand ``args`` names (``args.func``).  A
    :class:`ConfigError` is the command line's to fix: it is printed as
    ``error: …`` and the exit code is 2."""
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_run(args: argparse.Namespace) -> int:
    config = dataclasses.replace(config_from_args(args), observability=args.obs)
    result = run_experiment(config)
    print(format_table([result.row()]))
    print(f"latency (ms): {result.latency.as_millis()}")
    if args.obs:
        from ..obs.__main__ import phase_table, wire_tables

        print("\nphase-latency breakdown:")
        print(phase_table(result.obs.phase_rows))
        print("\nbandwidth breakdown:")
        print(wire_tables(result.wire))
    return 0 if result.safety_ok else 1


def _cmd_probe(args: argparse.Namespace) -> int:
    model = HybridCloudDelayModel(NetworkConfig())
    samples = sample_delay_model(
        model, sizes=DEFAULT_PROBE_SIZES, samples_per_size=args.samples
    )
    rows = []
    for size in DEFAULT_PROBE_SIZES:
        summary = LatencySummary.from_samples(samples[size])
        row = {"size_B": size}
        row.update({k: round(v, 3) for k, v in summary.as_millis().items() if k != "count"})
        rows.append(row)
    print(format_table(rows))
    return 0


#: Subcommands that are another module's whole command line: name →
#: (the module whose ``main(argv)`` runs it, help).
_DELEGATED = {
    "suite": ("repro.bench.__main__", "the paper's experiment suite (python -m repro.bench)"),
    "check": ("repro.check", "invariant sweep over seeded fault/adversary scenarios"),
}


def _delegate(command: str, argv: List[str]) -> int:
    return importlib.import_module(_DELEGATED[command][0]).main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="alterbft-bench")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one simulated experiment")
    run_p.add_argument("protocol", choices=protocol_names())
    add_scenario_arguments(run_p, rate=1000.0, duration=10.0, seed=1)
    run_p.add_argument("--tx-size", type=int, default=512)
    run_p.add_argument("--max-batch", type=int, default=400)
    run_p.add_argument("--warmup", type=float, default=1.0)
    run_p.add_argument(
        "--obs",
        action="store_true",
        help="record block-lifecycle spans and print the phase and bandwidth breakdowns",
    )
    run_p.set_defaults(func=_cmd_run)

    probe_p = sub.add_parser("probe", help="delay characterization table")
    probe_p.add_argument("--samples", type=int, default=5000)
    probe_p.set_defaults(func=_cmd_probe)

    for command, (_, help_text) in _DELEGATED.items():
        delegated = sub.add_parser(command, help=help_text, add_help=False)
        delegated.add_argument("args", nargs=argparse.REMAINDER)
        delegated.set_defaults(func=lambda args, command=command: _delegate(command, args.args))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse's REMAINDER refuses leading options (e.g. `check --smoke`),
    # so a delegated subcommand is dispatched before the main parser runs.
    if argv and argv[0] in _DELEGATED:
        return _delegate(argv[0], argv[1:])
    return dispatch(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
