"""No module of the package imports a name that it never uses, or defines
a private name that it never uses, and the layers of the integrators
import only downwards.

With no linter among the dependencies, the modules are checked with `ast`:
every name an `import` binds, and every module-level function, class or
constant whose name starts with one underscore, must be read somewhere in
the module.  `__init__.py`, which imports to re-export, and
`from __future__` imports are exempt.  The entry layer `integrators`
imports the DAE layer `_dae`, the stepping layer `_stepping` and the
audit layer `_audit`; `_stepping` imports `_dae` and `_audit`, which
import none of the three others.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fieldcircuit"


def unused_imports(source: str):
    """(line, name) of every imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def unused_private_names(source: str):
    """(line, name) of every module-level private function, class or
    constant that the module never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and name.id.startswith("_") \
                        and not name.id.startswith("__"):
                    defined[name.id] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items()
                  if name not in read)


def test_detector_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import scipy.sparse as sp\n"
              "from dataclasses import dataclass, field\n"
              "x = sp.eye(2)\n"
              "@dataclass\nclass A:\n    pass\n")
    assert unused_imports(source) == [(2, "os"), (4, "field")]


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(name):
    assert unused_imports((SRC / name).read_text(encoding="utf-8")) == []


def test_detector_flags_an_unused_private_name():
    source = ("_USED, _SPARE = 1, 2\n"
              "_TABLE: dict = {}\n"
              "__all__ = []\n"
              "def _helper():\n    return _USED\n"
              "class _Left:\n    pass\n"
              "def public():\n    _local = 3\n    return _helper()\n")
    assert unused_private_names(source) == [(1, "_SPARE"), (2, "_TABLE"),
                                            (6, "_Left")]


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_private_names(name):
    assert unused_private_names((SRC / name).read_text(encoding="utf-8")) == []


def imported_modules(source: str):
    """Dotted names of what a module's imports name: every module of an
    `import`, and of a `from` import its module and each name it takes
    from it, which may be a module (`from fieldcircuit import _dae`).  A
    relative import is read against the package."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = ".".join(filter(None, ["fieldcircuit" if node.level
                                            else None, node.module]))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_detector_finds_imported_modules():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "import fieldcircuit.integrators as entry\n"
              "from fieldcircuit import _dae\n"
              "from ._stepping import Method\n")
    assert imported_modules(source) == {
        "numpy", "fieldcircuit.integrators", "fieldcircuit",
        "fieldcircuit._dae", "fieldcircuit._stepping",
        "fieldcircuit._stepping.Method"}


# the modules each lower layer must not import
LAYERS = {
    "_dae.py": {"fieldcircuit.integrators", "fieldcircuit._stepping",
                "fieldcircuit._audit"},
    "_stepping.py": {"fieldcircuit.integrators"},
    "_audit.py": {"fieldcircuit.integrators", "fieldcircuit._stepping",
                  "fieldcircuit._dae"},
}


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_layers_import_only_downwards(name):
    found = imported_modules((SRC / name).read_text(encoding="utf-8"))
    assert {module for module in found for banned in LAYERS[name]
            if module == banned or module.startswith(banned + ".")} == set()
