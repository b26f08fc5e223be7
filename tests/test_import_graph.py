"""The import graph between the protocols and the optional subsystems.

``recovery/manager.py`` and ``guard/monitor.py`` both claim they never
import the protocol module, and the protocols are meant to know no
subsystem; this walks the source with ``ast`` and holds both to it.  It
also keeps the codec's seams public: a type that wants special treatment
from the codec (``Transaction`` is self-encoded) declares it through
``register``'s documented contract, not by reaching into the dispatch
tables.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Tuple

import repro

SRC = Path(repro.__file__).resolve().parent
SUBSYSTEM_PACKAGES = ("repro.recovery", "repro.guard", "repro.dissem")

#: What a protocol may import from a subsystem package: plain record
#: types only — here the journal entry the replica itself writes.
PLAIN_RECORDS = {("repro.recovery.wal", "WalEpochRecord")}


def _from_module(path: Path, node: ast.ImportFrom) -> str:
    """Absolute name of the module a ``from ... import`` in ``path`` names."""
    base: Tuple[str, ...] = ()
    if node.level:
        package = ("repro",) + path.relative_to(SRC).parent.parts
        base = package[: len(package) - (node.level - 1)]
    return ".".join(base + ((node.module,) if node.module else ()))


def _imports(path: Path) -> Iterator[Tuple[str, str]]:
    """(absolute module, imported name or "") for every import in ``path``,
    module level or nested, relative ones resolved."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ""
        elif isinstance(node, ast.ImportFrom):
            module = _from_module(path, node)
            for alias in node.names:
                yield module, alias.name


def _within(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def _names(module: str, name: str) -> Tuple[str, ...]:
    # ``from .. import recovery`` names a package through the imported name.
    return (module, f"{module}.{name}") if name else (module,)


def test_protocols_import_no_subsystem():
    protocol_files = [
        SRC / "core" / "protocol.py",
        SRC / "consensus" / "replica.py",
        *sorted((SRC / "baselines").glob("*.py")),
    ]
    assert len(protocol_files) >= 5
    for path in protocol_files:
        for module, name in _imports(path):
            if (module, name) in PLAIN_RECORDS:
                continue
            for candidate in _names(module, name):
                for package in SUBSYSTEM_PACKAGES:
                    assert not _within(candidate, package), (
                        f"{path.relative_to(SRC)} imports {name or module} from {module}"
                    )


def test_subsystems_import_no_protocol():
    for package in SUBSYSTEM_PACKAGES:
        files = sorted((SRC / package.split(".")[1]).glob("*.py"))
        assert files, package
        for path in files:
            for module, name in _imports(path):
                for candidate in _names(module, name):
                    assert not _within(candidate, "repro.core"), (
                        f"{path.relative_to(SRC)} imports {name or module} from {module}"
                    )


def test_the_walker_resolves_relative_imports():
    found = set(_imports(SRC / "core" / "protocol.py"))
    assert ("repro.recovery.wal", "WalEpochRecord") in found
    assert ("repro.consensus.replica", "BaseReplica") in found


CODEC_CORE = "repro.codec.core"


def _private_codec_names(path: Path) -> Iterator[str]:
    """Underscore-prefixed names of ``repro.codec.core`` that ``path`` uses,
    imported by name or reached through the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()  # local names the codec core module itself is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname for a in node.names if a.name == CODEC_CORE and a.asname}
        elif isinstance(node, ast.ImportFrom):
            module = _from_module(path, node)
            for alias in node.names:
                if f"{module}.{alias.name}" == CODEC_CORE:
                    bound.add(alias.asname or alias.name)
                elif _within(module, "repro.codec") and alias.name.startswith("_"):
                    yield alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id in bound) or (
                isinstance(owner, ast.Attribute) and ast.unparse(owner) == CODEC_CORE
            ):
                yield node.attr


def test_nothing_outside_the_codec_uses_its_private_names():
    files = [p for p in sorted(SRC.rglob("*.py")) if p.relative_to(SRC).parts[0] != "codec"]
    assert len(files) > 80
    for path in files:
        used = sorted(set(_private_codec_names(path)))
        assert not used, f"{path.relative_to(SRC)} uses private codec names {used}"
    # The one self-encoded type goes through register's documented contract.
    from_codec = {
        name
        for module, name in _imports(SRC / "types" / "transaction.py")
        if _within(module, "repro.codec")
    }
    assert from_codec == {"register", "encode_fields", "field_of"}


def test_the_private_name_check_sees_every_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from repro.codec.core import _ENC_BY_TYPE, encode\n"
        "from repro.codec import core, decode\n"
        "import repro.codec.core as cc\n"
        "import repro.codec.core\n"
        "core._STRUCT_DECODERS[10] = None\n"
        "cc._registry_by_id.clear()\n"
        "repro.codec.core._cacheable.clear()\n"
        "core.encode(decode(b''))\n"
    )
    assert sorted(_private_codec_names(probe)) == [
        "_ENC_BY_TYPE",
        "_STRUCT_DECODERS",
        "_cacheable",
        "_registry_by_id",
    ]


# -- a size is the length of the encoding ------------------------------------

#: What went with the size-only mirror of the encoder, spelt in halves so a
#: grep for the whole names comes back empty, this file included.
MIRROR_NAMES = ("_varint" "_len", "_SIZE_BY" "_TYPE")
SWITCH_NAMES = ("set_size" "_fast_path", "size_fast" "_path_enabled")


def test_the_codec_walks_the_format_once():
    tree = ast.parse((SRC / "codec" / "core.py").read_text(encoding="utf-8"))
    functions = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert not [n for n in functions if n.startswith("_size_") or n in MIRROR_NAMES]
    assigned = {
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    assert not assigned & set(MIRROR_NAMES)
    assert {"_size_cache_hits", "_size_cache_misses", "_ENC_BY_TYPE"} <= assigned
    # encoded_size is the encoder's walk: it calls it, and tests no mode.
    (sizer,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "encoded_size"]
    called = {n.func.id for n in ast.walk(sizer) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert "_encode_into" in called and "encode" not in called


def test_no_switch_selects_how_a_size_is_computed():
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for name in SWITCH_NAMES:
            assert name not in text, f"{path.relative_to(SRC)} mentions {name}"
    from repro import codec

    assert sorted(codec.__all__) == [
        "CodecError",
        "decode",
        "encode",
        "encode_cached",
        "encoded_size",
        "register",
        "registered_type_id",
        "registered_types",
        "reset_size_cache_stats",
        "size_cache_stats",
    ]


# -- the send path charges an offer once ------------------------------------

#: The per-offer taps: method name → the files allowed to call it, once each.
OFFER_TAPS = {
    "account": {"net/simnet.py", "net/transport.py"},
}


def _method_calls(path: Path, method: str) -> Iterator[bool]:
    """One item per ``<anything>.method(...)`` call in ``path``: whether the
    call sits inside a loop (``for``, ``while`` or a comprehension)."""
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

    def walk(node: ast.AST, in_loop: bool) -> Iterator[bool]:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == method
        ):
            yield in_loop
        for child in ast.iter_child_nodes(node):
            yield from walk(child, in_loop or isinstance(node, loops))

    yield from walk(ast.parse(path.read_text(encoding="utf-8")), False)


def test_each_tap_is_called_once_per_file_and_outside_any_loop():
    for method, allowed in OFFER_TAPS.items():
        for path in sorted(SRC.rglob("*.py")):
            calls = list(_method_calls(path, method))
            name = path.relative_to(SRC).as_posix()
            if name in allowed:
                assert calls == [False], f"{name}: .{method}( calls (in a loop?) {calls}"
            else:
                assert not calls, f"{name} calls .{method}("


def test_the_per_copy_send_path_is_gone():
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for name in ("_send_sized", "account_many"):
            assert name not in text, f"{path.relative_to(SRC)} mentions {name}"


def test_the_loop_check_sees_a_call_under_a_for(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "wire.account(src, dsts, msg, size)\n"
        "for dst in dsts:\n"
        "    if dst != src:\n"
        "        self.wire.account(src, dst, msg, size)\n"
        "[t.emit(k) for k in kinds]\n"
        "account(1)\n"
    )
    assert list(_method_calls(probe, "account")) == [False, True]
    assert list(_method_calls(probe, "emit")) == [True]


#: What counted a message beside the wire accountant, and the two run
#: options that selected a counter, spelt in halves so a grep for the whole
#: names comes back empty, this file included.
SECOND_COUNTER = "count" "_message"
COUNTER_OPTIONS = ("wire" "_accounting", "record" "_trace")


def test_the_wire_accountant_is_the_only_message_counter():
    import dataclasses

    from repro.config import ExperimentConfig

    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert SECOND_COUNTER not in text, f"{path.relative_to(SRC)} mentions {SECOND_COUNTER}"
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert not fields & set(COUNTER_OPTIONS)
    assert len(fields) == 10


# -- each replica event is one call -------------------------------------------

#: The recording verbs a replica had beside its counter.
RETIRED_VERBS = ("obs_mark", "obs_event")


def _functions_named(path: Path, name: str) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            yield node


def test_each_replica_event_is_one_call():
    """No second recording verb, and every context's ``trace`` takes the
    kind and nothing else: what a recording carries goes through
    ``BaseReplica.event`` / ``mark``."""
    traces = []
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        text = path.read_text(encoding="utf-8")
        for verb in RETIRED_VERBS:
            assert verb not in text, f"{name} mentions {verb}"
        for method in _functions_named(path, "trace"):
            args = method.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            assert params == ["self", "kind"] and not (args.vararg or args.kwarg), (
                f"{name}:{method.lineno} trace takes more than the kind"
            )
            traces.append(name)
    # Context, SimContext, AsyncioContext, the fault layer's outbound filter.
    assert sorted(traces) == [
        "consensus/context.py",
        "consensus/context.py",
        "faults/behaviors.py",
        "net/transport.py",
    ]


# -- one way to say a run -----------------------------------------------------

REPO = SRC.parent.parent

#: Where a run gets configured outside the tests: the code that has to
#: give a config field a second value for it to stay a field
#: (``measure`` fits ``NetworkConfig`` values from measurements).
CONFIG_CALLERS = (
    SRC / "bench",
    SRC / "check",
    SRC / "measure",
    SRC / "runner",
    SRC / "obs",
    REPO / "benchmarks" / "system",
    REPO / "examples",
)

_PARETO_TAIL = (
    "the Pareto tail of the calibrated environment model, set together with "
    "slowdown_probability, which E10 varies"
)

#: Fields nothing outside the tests sets, and why they stay fields.
UNSET_ON_PURPOSE = {
    "max_payload_bytes": "deployment cap on a block's size, like an address or a path",
    "idle_propose_delay": "pacing of empty blocks; unit tests turn it off to count proposals",
    "crypto_aggregate": "True-only: certificates are aggregates, and the frozen benchmark "
    "catalogue still passes the keyword; the field goes when the catalogue drops it",
    "slowdown_scale": _PARETO_TAIL,
    "slowdown_alpha": _PARETO_TAIL,
}


def _settings(path: Path) -> Iterator[Tuple[str, ast.expr]]:
    """(name, value) for every ``name=value`` keyword of a call and every
    ``"name": value`` entry of a dict literal in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg is not None:
                    yield keyword.arg, keyword.value
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    yield key.value, value


def _fields_given_a_second_value(roots, defaults) -> set:  # type: ignore[no-untyped-def]
    found = set()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for name, value in _settings(path):
                is_default = isinstance(value, ast.Constant) and value.value == defaults.get(name)
                if name in defaults and not is_default:
                    found.add(name)
    return found


def test_every_protocol_config_field_has_a_second_value_in_use():
    """The rule for every config dataclass: a field is something two
    callers set differently; anything else is a constant."""
    import dataclasses

    from repro.config import ExperimentConfig, NetworkConfig, ProtocolConfig, WorkloadConfig

    counts = {ProtocolConfig: 18, NetworkConfig: 9, WorkloadConfig: 3, ExperimentConfig: 10}
    defaults = {}
    for cls, count in counts.items():
        fields = dataclasses.fields(cls)
        assert len(fields) == count, cls.__name__
        for f in fields:
            defaults[f.name] = None if f.default is dataclasses.MISSING else f.default
    assert len(defaults) == sum(counts.values())  # no name in two dataclasses
    for root in CONFIG_CALLERS:
        assert root.is_dir(), root
    never_set = set(defaults) - _fields_given_a_second_value(CONFIG_CALLERS, defaults)
    assert never_set == set(UNSET_ON_PURPOSE)


def test_the_second_value_check_sees_keywords_and_dict_entries(tmp_path):
    (tmp_path / "probe.py").write_text(
        "make_config('alterbft', pipeline_depth=1, guard_enabled=args.guard)\n"
        "FLAGS = {'crypto_batch': True, 'crypto_aggregate': False, 'other': 3}\n"
    )
    defaults = {"pipeline_depth": 1, "guard_enabled": False, "crypto_batch": False,
                "crypto_aggregate": False}
    assert _fields_given_a_second_value([tmp_path], defaults) == {"guard_enabled", "crypto_batch"}


def _string_literals(node: ast.AST) -> set:
    return {
        n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


def test_only_the_tables_know_a_behavior_by_name():
    from repro.check.scenarios import SWEPT
    from repro.faults import BEHAVIORS

    names = set(BEHAVIORS) | set(SWEPT)
    for rel in ("runner/cluster.py", "check/runner.py"):
        tree = ast.parse((SRC / rel).read_text(encoding="utf-8"))
        assert not _string_literals(tree) & names, rel
    tree = ast.parse((SRC / "faults" / "behaviors.py").read_text(encoding="utf-8"))
    (apply_behavior,) = [
        n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "apply_behavior"
    ]
    # parse → look up → call: no branch on the name is left in it.
    assert not [n for n in ast.walk(apply_behavior) if isinstance(n, (ast.If, ast.Compare))]
