"""Every dense call in the package is listed, with the shape it densifies.

The package keeps no dense n×n matrix: the PSD test and the pseudo-solve
are sparse at every size.  Dense arrays are allowed only on blocks that are
small by construction.  This test finds, with `ast`, every call that
densifies a sparse block (`.toarray()`, `.todense()`, `to_dense(…)`) or runs
a dense solver (`numpy.linalg.*`, `scipy.linalg.*`), keyed by module,
enclosing function and callee.  They must equal the table below, one
entry per call, so a new dense call, or one that moves, fails until it is
listed here with its shape.
"""
import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fieldcircuit"

_DENSE_METHODS = {"toarray", "todense"}
_LINALG_MODULES = {"numpy.linalg", "scipy.linalg"}

# one entry per call: (module, enclosing function, callee, the shape it
# densifies); n is a state or field dimension, k a port or coupling-column
# count, s the number of Runge-Kutta stages, m the port count and r the
# differential coordinates of a system that `_stepping._condenses` lets
# step condensed: n·r ≤ nnz(A_dae) + n, so an n×r array stores no more
# entries than the LU factor of the pencil it replaces
LISTED = [
    ("structure.py", "to_dense", ".toarray",
     "the helper itself; each caller is listed below"),
    ("conductors.py", "_columns", "to_dense", "n×k coupling columns"),
    ("conductors.py", "SolidModel.__post_init__", "to_dense",
     "n×k distribution columns X_sol"),
    ("conductors.py", "SolidModel.__post_init__", "to_dense",
     "k×k port block G_sol"),
    ("conductors.py", "FoilModel.__post_init__", "to_dense",
     "the k entries of c"),
    ("conductors.py", "FoilModel._check_column_space", "to_dense",
     "n×k columns X_foil"),
    ("conductors.py", "FoilModel._check_column_space", "to_dense",
     "k×k port block G_foil"),
    ("conductors.py", "solid_system", "to_dense",
     "n×k distribution columns X_sol"),
    ("experiments.py", "build_oscillator", "to_dense",
     "n×k distribution columns X_sol"),
    ("fem.py", "pseudo_solve", "to_dense", "n×k right-hand sides"),
    ("fem.py", "pseudo_solve", ".toarray", "one column of row maxima"),
    ("fem.py", "lumped_inductance", "to_dense", "one n×1 winding column"),
    ("_stepping.py", "_pencil_plan", "numpy.linalg.eig",
     "the s×s Butcher matrix"),
    ("_stepping.py", "_pencil_plan", "numpy.linalg.cond",
     "the s×s eigenvector matrix of the Butcher matrix"),
    ("_stepping.py", "_pencil_plan", "numpy.linalg.inv",
     "the s×s eigenvector matrix of the Butcher matrix"),
    ("_dae.py", "_left_null_basis", "scipy.linalg.null_space",
     "one circuit-sized connected block of constraint rows, filled from "
     "its entries"),
    ("_dae.py", "_left_null_basis", "scipy.linalg.qr",
     "the null vectors of that block, k × its rows"),
    ("_stepping.py", "_build_reduced", ".toarray",
     "the r×m input rows B_dae[R] of the condensed form, under the cost "
     "rule"),
    ("_stepping.py", "_condensed_plans", "numpy.linalg.solve",
     "one r×r pencil I − τλA_r per eigenvalue, with r + m (+ r for BDF2) "
     "right sides, under the cost rule"),
    ("_dae.py", "_eliminate_pivots", ".toarray",
     "n×k columns E[P, K] that the circuit rows touch"),
    ("_dae.py", "_eliminate_pivots", ".toarray",
     "n×k columns E[Q, P]ᵀ W of the null vectors E[Q, P] reaches"),
    ("_dae.py", "check_constraint_residual", ".toarray",
     "one constraint row"),
]


def _linalg_aliases(tree):
    """Names bound to a dense linear-algebra module, and names imported
    from one (mapped to their full dotted name)."""
    modules = {"np.linalg": "numpy.linalg", "numpy.linalg": "numpy.linalg",
               "scipy.linalg": "scipy.linalg"}
    functions = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in _LINALG_MODULES and alias.asname:
                    modules[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                if full in _LINALG_MODULES:
                    modules[alias.asname or alias.name] = full
                elif node.module in _LINALG_MODULES:
                    functions[alias.asname or alias.name] = full
    return modules, functions


def dense_calls(source: str) -> Counter:
    """(enclosing function, callee) of every densifying or dense-solver
    call in a module, counted."""
    tree = ast.parse(source)
    modules, functions = _linalg_aliases(tree)
    found = Counter()

    def callee(call):
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in _DENSE_METHODS:
            owner = ast.unparse(func.value)
            if owner not in modules:
                return "." + func.attr
        if isinstance(func, ast.Name):
            if func.id == "to_dense":
                return "to_dense"
            return functions.get(func.id)
        if isinstance(func, ast.Attribute):
            owner = ast.unparse(func.value)
            if owner in modules:
                return f"{modules[owner]}.{func.attr}"
        return None

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                name = callee(child)
                if name is not None:
                    found[(".".join(scope) or "<module>", name)] += 1
            visit(child, scope)

    visit(tree, ())
    return found


def test_detector_flags_a_dense_fallback():
    source = ("import numpy as np\n"
              "import scipy.linalg as sla\n"
              "from numpy.linalg import eigvalsh\n"
              "def solve(m, b):\n"
              "    return np.linalg.lstsq(m.toarray(), b)[0]\n"
              "class A:\n"
              "    def low(self, m):\n"
              "        return eigvalsh(sla.sqrtm(m.todense()))\n")
    assert dense_calls(source) == Counter({
        ("solve", "numpy.linalg.lstsq"): 1,
        ("solve", ".toarray"): 1,
        ("A.low", "numpy.linalg.eigvalsh"): 1,
        ("A.low", "scipy.linalg.sqrtm"): 1,
        ("A.low", ".todense"): 1,
    })


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_every_dense_call_is_listed(name):
    found = dense_calls((SRC / name).read_text(encoding="utf-8"))
    listed = Counter((func, call) for module, func, call, _ in LISTED
                     if module == name)
    assert found == listed


def test_no_dense_psd_test_or_least_squares_in_the_package():
    text = "".join(p.read_text(encoding="utf-8") for p in SRC.glob("*.py"))
    for word in ("EIG_DENSE_LIMIT", "eigvalsh", "lstsq"):
        assert word not in text
