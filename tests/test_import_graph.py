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

import pytest

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


# -- one module freezes the collector's heap -----------------------------------

#: The module that freezes and thaws the collector's heap around a run
#: (``freeze_history``, ``reclaim``), and the one other that may call into
#: ``gc``: the micro-benchmark timer, which keeps the collector out of a
#: timed repetition.
HEAP_FREEZER = "consensus/ledger.py"
GC_CALLERS = {HEAP_FREEZER, "perf/timing.py"}


def _gc_names(path: Path) -> Iterator[str]:
    """Each name of ``gc`` that ``path`` uses: reached through the module
    (``gc.freeze``, under any alias) or imported from it; a bare
    ``import gc`` yields ``""``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "gc":
                    bound.add(alias.asname or "gc")
                    yield ""
        elif isinstance(node, ast.ImportFrom) and node.module == "gc" and not node.level:
            yield from (alias.name for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            yield node.attr


def test_one_module_freezes_the_heap_and_one_other_calls_gc():
    freezers, callers = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        names = set(_gc_names(path))
        name = path.relative_to(SRC).as_posix()
        if names:
            callers.add(name)
        if names & {"freeze", "unfreeze"}:
            freezers.add(name)
    assert freezers == {HEAP_FREEZER}
    assert callers <= GC_CALLERS, f"{sorted(callers - GC_CALLERS)} call into gc"


def test_the_gc_finder_sees_every_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import gc\n"
        "import gc as collector\n"
        "from gc import unfreeze\n"
        "gc.freeze()\n"
        "collector.collect()\n"
        "self.gc.freeze()\n"
    )
    assert sorted(_gc_names(probe)) == ["", "", "collect", "freeze", "unfreeze"]


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


# -- field types are the codec's decision ------------------------------------

#: The method that held a decoded message's fields to their types outside
#: the codec, and the word its refusals used, spelt in halves so a grep for
#: the whole names comes back empty, this file included.
RETIRED_CHECK = "well" "_formed"
REFUSAL_WORD = "ill" "-typed"


def _shape_checks(path: Path) -> Iterator[str]:
    """A ``well_formed`` or ``_check_*_shape`` function or call in ``path``,
    and every ``VerificationError`` whose message says "ill-typed"."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        name = None
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name == RETIRED_CHECK or (name or "").startswith("_check_") and name.endswith("_shape"):
            yield f"{node.lineno}: {name}"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "VerificationError"
            and any(REFUSAL_WORD in text for text in _string_literals(node))
        ):
            yield f"{node.lineno}: VerificationError({REFUSAL_WORD})"


def test_field_types_are_checked_by_the_codec_alone():
    """The codec holds every field to its annotation; no handler, type or
    subsystem checks a field's type a second time."""
    files = [p for p in sorted(SRC.rglob("*.py")) if p.relative_to(SRC).parts[0] != "codec"]
    assert len(files) > 80
    for path in files:
        found = list(_shape_checks(path))
        assert not found, f"{path.relative_to(SRC)} checks field types: {found}"


def test_the_shape_check_finder_sees_each_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        f"def {RETIRED_CHECK}(self):\n"
        "    return True\n"
        "def _check_payload_shape(payload):\n"
        f"    raise VerificationError('{REFUSAL_WORD} payload')\n"
        f"ok = header.{RETIRED_CHECK}()\n"
        "raise VerificationError('bad signature')\n"
    )
    assert [line.split(":")[0] for line in _shape_checks(probe)] == ["1", "3", "4", "5"]


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


# -- one quorum -----------------------------------------------------------------

#: Where a quorum is collected and a certificate checked, and the one file
#: beside it that assembles a certificate: the micro benchmark's timed
#: certificate row.
QUORUM_COLLECTOR = "consensus/quorum.py"
QUORUM_EXCEPTIONS = {"perf/micro.py": ["assemble"]}


def _signer_fields() -> set:
    """The signer-id field of every signed-statement class (``voter``,
    ``blamer``, ``proposer``): what a bucket keyed by signer indexes with."""
    from repro.types.certificates import SignedStatement

    return {
        list(cls.__annotations__)[len(cls.KIND.fields)] for cls in SignedStatement.__subclasses__()
    }


def _quorum_sites(path: Path) -> Iterator[str]:
    """Each place ``path`` assembles a certificate (``.assemble(``),
    verifies a quorum member or a certificate (``.verify(`` with one or two
    arguments, or a batch of member signatures), or files a statement
    under its signer (``bucket[vote.voter] = ...``), in line order."""
    signer_fields = _signer_fields()
    sites = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = node.func.attr
            if name == "verify" and len(node.args) in (1, 2):
                sites.append((node.lineno, "verify"))
            elif name in ("assemble", "batch_verify_digest", "find_invalid_digest"):
                sites.append((node.lineno, name))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Attribute)
                    and target.slice.attr in signer_fields
                ):
                    sites.append((node.lineno, f"bucket by {target.slice.attr}"))
    for line, what in sorted(sites):
        yield f"{line}: {what}"


def test_one_collector_collects_every_quorum():
    """Only the collector assembles a certificate, checks a quorum member
    or a received certificate, or keeps statements by signer."""
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 80
    for path in files:
        name = path.relative_to(SRC).as_posix()
        kinds = [site.split(": ")[1] for site in _quorum_sites(path)]
        if name == QUORUM_COLLECTOR:
            assert sorted(set(kinds)) == [
                "assemble", "batch_verify_digest", "find_invalid_digest", "verify"
            ]
        else:
            assert kinds == QUORUM_EXCEPTIONS.get(name, []), f"{name} collects a quorum: {kinds}"


#: The four hand-written collectors and certificate checks the tree had,
#: abridged: owner → (source, the finder's sites in it).
RETIRED_COLLECTORS = {
    "record_vote+verify_qc": (
        "if not vote.verify(self.signer):\n"
        "    raise VerificationError('bad vote signature')\n"
        "bucket = self._votes.setdefault(key, {})\n"
        "bucket[vote.voter] = vote\n"
        "if lazy and not self.signer.batch_verify_digest(VOTE.domain, message, pairs):\n"
        "    bad = self.signer.find_invalid_digest(VOTE.domain, message, pairs)\n"
        "qc = Certificate.assemble(bucket.values(), self.signer)\n"
        "valid = qc.protocol == self.protocol_name and qc.verify(self.signer, self.validators)\n",
        ["1: verify", "4: bucket by voter", "5: batch_verify_digest", "6: find_invalid_digest",
         "7: assemble", "8: verify"],
    ),
    "record_blame+verify_blame_cert": (
        "if not blame.verify(self.signer):\n"
        "    raise VerificationError('bad blame signature')\n"
        "bucket[blame.blamer] = blame\n"
        "cert = Certificate.assemble(bucket.values(), self.signer)\n"
        "ok = cert.verify(self.signer, self.validators)\n",
        ["1: verify", "3: bucket by blamer", "4: assemble", "5: verify"],
    ),
    "recovery.on_checkpoint_vote+_verify_cert": (
        "if not vote.verify(self.replica.signer):\n"
        "    return\n"
        "bucket[vote.voter] = vote\n"
        "self._record_cert(Certificate.assemble(bucket.values(), self.replica.signer))\n"
        "ok = cert.verify(self.replica.signer, self.replica.validators)\n",
        ["1: verify", "3: bucket by voter", "4: assemble", "5: verify"],
    ),
    "guard.on_delta_adjust+on_delta_adjust_cert": (
        "if not adjust.verify(replica.signer):\n"
        "    raise VerificationError('bad delta-adjustment signature')\n"
        "bucket[adjust.proposer] = adjust\n"
        "cert = Certificate.assemble(bucket.values(), replica.signer)\n"
        "if not cert.verify(replica.signer, replica.validators):\n"
        "    raise VerificationError('invalid delta-adjust certificate')\n",
        ["1: verify", "3: bucket by proposer", "4: assemble", "5: verify"],
    ),
}


@pytest.mark.parametrize("owner", list(RETIRED_COLLECTORS))
def test_the_quorum_finder_sees_each_retired_collector(tmp_path, owner):
    source, sites = RETIRED_COLLECTORS[owner]
    probe = tmp_path / "probe.py"
    probe.write_text(source)
    assert list(_quorum_sites(probe)) == sites


# -- one protocol table -------------------------------------------------------

#: What names an optional feature: a piece of its name or its setting's in
#: a message, or the setting (or the attached subsystems) read in code.
FEATURE_WORDS = ("pipelin", "checkpoint", "guard", "dissem", "recovery")
FEATURE_ATTRS = {
    "pipeline_depth", "checkpoint_interval", "guard_enabled", "dissemination", "subsystems"
}
#: What names a protocol: its name in a message, or the name read in code.
PROTOCOL_WORDS = ("alterbft", "hotstuff", "pbft")
PROTOCOL_ATTRS = {"protocol", "protocol_name"}


def _reads(node: ast.AST) -> Tuple[bool, bool]:
    """(names a feature, names a protocol), anywhere under ``node``."""
    texts = {text.lower() for text in _string_literals(node)}
    names = {
        n.attr if isinstance(n, ast.Attribute) else n.id
        for n in ast.walk(node)
        if isinstance(n, (ast.Attribute, ast.Name))
    }
    feature = bool(names & FEATURE_ATTRS) or any(w in t for t in texts for w in FEATURE_WORDS)
    protocol = bool(names & PROTOCOL_ATTRS) or any(w in t for t in texts for w in PROTOCOL_WORDS)
    return feature, protocol


def _carry_refusals(path: Path) -> Iterator[str]:
    """Each ``ConfigError(...)`` or ``_require(...)`` in ``path`` that,
    with the tests of the ``if`` statements around it, names both a
    feature and a protocol: a refusal of a feature some protocol does not
    carry."""

    def walk(node: ast.AST, guards: Tuple[ast.AST, ...]) -> Iterator[str]:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("ConfigError", "_require"):
                found = [_reads(n) for n in (node,) + guards]
                if any(f for f, _ in found) and any(p for _, p in found):
                    yield f"{node.lineno}: {node.func.id}"
        inner = guards + ((node.test,) if isinstance(node, ast.If) else ())
        for child in ast.iter_child_nodes(node):
            yield from walk(child, inner)

    yield from walk(ast.parse(path.read_text(encoding="utf-8")), ())


def _protocol_comparisons(path: Path) -> Iterator[str]:
    """Each comparison in ``path`` against a protocol's name."""
    from repro.runner.registry import protocol_names

    names = set(protocol_names())
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if _string_literals(ast.Tuple(elts=operands)) & names or any(
                isinstance(o, ast.Attribute) and o.attr in PROTOCOL_ATTRS for o in operands
            ):
                lines.add(node.lineno)
    for line in sorted(lines):
        yield f"{line}: compare"


def test_one_check_refuses_an_uncarried_feature():
    """The feature declarations (``FEATURES``) and ``refuse_uncarried``
    are the only code that says which protocol carries what: no other
    refusal names a feature and a protocol, and the config compares no
    protocol name."""
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 80
    for path in files:
        found = list(_carry_refusals(path))
        assert not found, f"{path.relative_to(SRC)} refuses a feature by protocol: {found}"
    assert list(_protocol_comparisons(SRC / "config.py")) == []
    from repro.runner import registry

    assert all(len(entry) == 2 for entry in registry._REGISTRY.values())


#: The places that said which protocol carries a feature before the table,
#: abridged: where → (source, the finder's sites in it).
RETIRED_CARRY_CHECKS = {
    "ExperimentConfig.validate": (
        "_require(\n"
        "    self.protocol == 'alterbft' or self.protocol_config.pipeline_depth == 1,\n"
        "    'pipeline_depth > 1 is only supported by alterbft '\n"
        "    f'(got {self.protocol_config.pipeline_depth} for {self.protocol!r})',\n"
        ")\n"
        "_require(\n"
        "    self.protocol == 'alterbft' or not self.protocol_config.dissemination,\n"
        "    f'dissemination is only supported by alterbft (got {self.protocol!r})',\n"
        ")\n",
        ["1: _require", "6: _require"],
    ),
    "baseline constructors": (
        "if config.pipeline_depth > 1:\n"
        "    raise ConfigError(\n"
        "        'pipeline_depth > 1 is only supported by alterbft '\n"
        "        f'(got {config.pipeline_depth} for {self.protocol_name})'\n"
        "    )\n",
        ["2: ConfigError"],
    ),
    "_apply_crash_recover": (
        "manager = replica.subsystems.get('recovery')\n"
        "if manager is None:\n"
        "    raise ConfigError(\n"
        "        'crash-recover behavior requires the recovery subsystem, which only '\n"
        "        'AlterBFT-family replicas carry (runner.registry.attach_subsystems)'\n"
        "    )\n",
        ["3: ConfigError"],
    ),
    "a guard on the protocol's name": (
        "if self.protocol != 'alterbft':\n"
        "    if self.config.dissemination:\n"
        "        raise ConfigError('no')\n"
        "raise ConfigError('pipeline_depth must be >= 1')\n",
        ["3: ConfigError"],
    ),
}


@pytest.mark.parametrize("where", list(RETIRED_CARRY_CHECKS))
def test_the_carry_finder_sees_each_retired_check(tmp_path, where):
    source, sites = RETIRED_CARRY_CHECKS[where]
    probe = tmp_path / "probe.py"
    probe.write_text(source)
    assert list(_carry_refusals(probe)) == sites


def test_the_comparison_finder_sees_a_protocol_name(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "ok = self.protocol == 'alterbft' or depth == 1\n"
        "if protocol in ('hotstuff', 'pbft'):\n"
        "    pass\n"
        "same = self.topology in ('single-az', 'three-regions')\n"
    )
    assert list(_protocol_comparisons(probe)) == ["1: compare", "2: compare"]


# -- one phase table ----------------------------------------------------------

#: The one module that says which wire phase a message class is in.
PHASE_DECLARATIONS = "types/messages.py"


def _class_named(node: ast.AST) -> str:
    """The message class ``node`` names — a class (``VoteMsg``,
    ``messages.VoteMsg``) or its name as a string — or ""."""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    else:
        return ""
    return name if name.endswith("Msg") else ""


def _phase_mappings(path: Path) -> Iterator[str]:
    """Each place ``path`` ties a message class to a wire phase: a
    ``WIRE_PHASE`` assignment, a dict entry from a class (or its name) to
    a phase, or a phase stored into a mapping, in line order."""
    from repro.types.messages import WIRE_PHASE_NAMES

    phases = set(WIRE_PHASE_NAMES) - {"other"}

    def is_phase(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return node.value in phases
        return isinstance(node, ast.Attribute) and node.attr == "WIRE_PHASE"

    sites = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                named = target.id if isinstance(target, ast.Name) else getattr(target, "attr", "")
                if named == "WIRE_PHASE":
                    sites.append((node.lineno, "declares WIRE_PHASE"))
                elif isinstance(target, ast.Subscript) and is_phase(node.value):
                    sites.append((node.lineno, "stores a phase"))
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if key is not None and _class_named(key) and is_phase(value):
                    sites.append((key.lineno, f"maps {_class_named(key)}"))
    for line, what in sorted(sites):
        yield f"{line}: {what}"


def test_each_message_class_declares_its_phase_in_one_place():
    """Only the message module ties a class to a phase, once per class;
    wire accounting reads the declarations and knows no runner."""
    from repro.codec import registered_types

    messages = [c for c in registered_types().values() if c.__name__.endswith("Msg")]
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 80
    for path in files:
        name = path.relative_to(SRC).as_posix()
        found = list(_phase_mappings(path))
        if name == PHASE_DECLARATIONS:
            assert [site.split(": ")[1] for site in found] == ["declares WIRE_PHASE"] * len(messages)
        else:
            assert not found, f"{name} maps a message class to a phase: {found}"
    for module, name in _imports(SRC / "obs" / "wire.py"):
        assert not any(_within(c, "repro.runner") for c in _names(module, name)), module


#: The phase tables the tree had before each class declared its own,
#: abridged: where → (source, the finder's sites in it).
RETIRED_PHASE_MAPS = {
    "obs/wire._phase_map": (
        "mapping = {\n"
        "    'ProposalHeaderMsg': 'propose',\n"
        "    'PayloadMsg': 'payload',\n"
        "    'PBFTCommitMsg': 'vote',\n"
        "}\n"
        "for subsystem in SUBSYSTEMS:\n"
        "    for msg_cls in subsystem.HANDLERS:\n"
        "        mapping[msg_cls.__name__] = subsystem.WIRE_PHASE\n",
        ["2: maps ProposalHeaderMsg", "3: maps PayloadMsg", "4: maps PBFTCommitMsg",
         "8: stores a phase"],
    ),
    "a subsystem's phase": (
        "class RecoveryManager:\n"
        "    name = 'recovery'\n"
        "    WIRE_PHASE = 'recovery'\n",
        ["3: declares WIRE_PHASE"],
    ),
    "a table keyed by class": (
        "PHASES = {VoteMsg: 'vote', messages.GuardProbeMsg: 'guard', Vote: 'vote'}\n",
        ["1: maps GuardProbeMsg", "1: maps VoteMsg"],
    ),
}


@pytest.mark.parametrize("where", list(RETIRED_PHASE_MAPS))
def test_the_phase_finder_sees_each_retired_table(tmp_path, where):
    source, sites = RETIRED_PHASE_MAPS[where]
    probe = tmp_path / "probe.py"
    probe.write_text(source)
    assert list(_phase_mappings(probe)) == sites
