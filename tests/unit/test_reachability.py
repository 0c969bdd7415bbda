"""Every public top-level definition in ``src/repro`` has a caller.

A definition that no system, figure, example, benchmark or perfbench
table reaches is a second model that nothing runs.  The scan below
finds them statically, the way ``test_config.py::TestEveryFieldIsRead``
finds config fields nothing reads:

- **Scope.** Each top-level ``def``/``class`` without a leading ``_``
  in every ``src/repro`` module except the package ``__init__`` files.
- **A reference** is an ``ast.Name`` or ``ast.Attribute`` with the
  definition's identifier, or the identifier as a word inside a string
  constant that is not a docstring (perfbench patches methods through
  tables of class names).  References are searched in every non-test
  ``.py`` under ``src/``, ``examples/``, ``benchmarks/`` and
  ``perfbench/``.
- **Not a reference:** a hit inside the definition's own top-level
  statement, an import alias, a package ``__init__`` re-export, or a hit
  inside a definition the scan has already flagged.  The scan repeats
  until no new name is flagged, so a helper only dead code calls falls
  with it.
- A class decorated with ``@register_system`` is reached: the registry
  is its caller.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import pytest

import repro

PACKAGE = Path(repro.__file__).resolve().parent
ROOT = PACKAGE.parents[1]
SEARCH_DIRS = ("src", "examples", "benchmarks", "perfbench")

#: Names the scan flags that stay on purpose, each a reference the test
#: suite checks the program against or a fixture it builds on.  An
#: entry is a dotted definition, or a module whose flagged definitions
#: are all allowed.  Each entry must be flagged (a module: some of its
#: definitions), so the list cannot go stale.
ALLOWED = (
    # The closed-form M/M/c reference that
    # tests/integration/test_queueing_theory.py checks the simulator
    # against, with the exponential service time it assumes.
    "repro.analysis.queueing",
    "repro.workload.distributions.Exponential",
    # The reference test_bimodal_matches_equivalent_mixture checks
    # Bimodal against.
    "repro.workload.distributions.Mixture",
    # Deterministic fixtures of the generator, arrivals, packet,
    # flow-director and dispatcher tests.
    "repro.workload.arrivals.UniformArrivals",
    "repro.net.packet.make_udp_packet",
)

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: (module, name) of a top-level definition.
Key = Tuple[str, str]


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)


def _modules() -> List[Path]:
    return sorted(path for path in PACKAGE.rglob("*.py")
                  if path.name != "__init__.py")


def _sources() -> List[Path]:
    paths = []
    for top in SEARCH_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            parts = path.relative_to(ROOT).parts
            if "tests" in parts:
                continue
            if path.name == "__init__.py" and PACKAGE in path.parents:
                continue  # re-exports only
            paths.append(path)
    return paths


def _docstrings(tree: ast.AST) -> Set[int]:
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and \
                    isinstance(body[0].value, ast.Constant) and \
                    isinstance(body[0].value.value, str):
                ids.add(id(body[0].value))
    return ids


def _identifiers(node: ast.AST, docstrings: Set[int]) -> Set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and id(sub) not in docstrings:
            names.update(_WORD.findall(sub.value))
    return names


def _defined_name(stmt: ast.stmt) -> Optional[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return stmt.name
    return None


def _registered(stmt: ast.stmt) -> bool:
    for deco in getattr(stmt, "decorator_list", ()):
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "register_system":
            return True
    return False


def _scan() -> Tuple[Set[Key], Dict[str, Tuple[str, ...]]]:
    """Flag every unreached definition; also map module -> its names."""
    definitions: Dict[Key, bool] = {}     # key -> registered
    per_module: Dict[str, Tuple[str, ...]] = {}
    for path in _modules():
        module = _module_name(path)
        names = []
        for stmt in ast.parse(path.read_text(), str(path)).body:
            name = _defined_name(stmt)
            if name is not None and not name.startswith("_"):
                definitions[(module, name)] = _registered(stmt)
                names.append(name)
        per_module[module] = tuple(names)

    # identifier -> the top-level definitions (None: module level) it
    # appears in.
    owners: Dict[str, Set[Optional[Key]]] = {}
    for path in _sources():
        tree = ast.parse(path.read_text(), str(path))
        docstrings = _docstrings(tree)
        module = _module_name(path) if PACKAGE in path.parents else None
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            name = _defined_name(stmt)
            owner = (module, name) if module and name else None
            for ident in _identifiers(stmt, docstrings):
                owners.setdefault(ident, set()).add(owner)

    flagged: Set[Key] = set()
    while True:
        new = {key for key, registered in definitions.items()
               if key not in flagged and not registered
               and not owners.get(key[1], set()) - flagged - {key}}
        if not new:
            return flagged, per_module
        flagged |= new


def _allowed(key: Key) -> bool:
    module, name = key
    return module in ALLOWED or f"{module}.{name}" in ALLOWED


@pytest.fixture(scope="module")
def scan():
    return _scan()


@pytest.mark.parametrize("module", [_module_name(p) for p in _modules()])
def test_every_definition_is_reached(module, scan):
    flagged, _ = scan
    unreached = sorted(f"{m}.{n}" for m, n in flagged
                       if m == module and not _allowed((m, n)))
    assert unreached == []


@pytest.mark.parametrize("entry", ALLOWED)
def test_allow_list_entry_is_flagged(entry, scan):
    flagged, per_module = scan
    if entry in per_module:
        assert any((entry, name) in flagged for name in per_module[entry])
    else:
        module, name = entry.rsplit(".", 1)
        assert (module, name) in flagged
