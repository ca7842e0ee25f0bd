"""No module of the package imports a name that it never uses.

With no linter among the dependencies, the imports are checked with `ast`:
every name an `import` binds must be read somewhere in the module.
`__init__.py`, which imports to re-export, and `from __future__` imports
are exempt.
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
