"""The import graph between the protocols and the optional subsystems.

``recovery/manager.py`` and ``guard/monitor.py`` both claim they never
import the protocol module, and the protocols are meant to know no
subsystem; this walks the source with ``ast`` and holds both to it.
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


def _imports(path: Path) -> Iterator[Tuple[str, str]]:
    """(absolute module, imported name or "") for every import in ``path``,
    module level or nested, relative ones resolved."""
    package = ("repro",) + path.relative_to(SRC).parent.parts
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ""
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - (node.level - 1)] if node.level else ()
            module = ".".join(base + ((node.module,) if node.module else ()))
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
