"""One kind dispatch: only ``path_norms`` maps a norm kind to its kernel.

Paths, lifts and curves are priced by ``path_norms._energy``; every other
library module hands it a pair cost. A module that imports one of the
kernels itself, or defines an ``_energy`` of its own, has started a second
dispatch.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pathlift"

KERNELS = {"_besov_sums", "_holder_max", "_pvar_dp", "_sobolev_sum"}


def _second_dispatch(tree):
    """The kernel imports and ``_energy`` definitions of a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [f"imports {a.name}" for a in node.names
                      if a.name in KERNELS]
        elif isinstance(node, ast.FunctionDef) and node.name == "_energy":
            found.append(f"defines _energy (line {node.lineno})")
    return found


def test_only_path_norms_dispatches_energies():
    offenders = {}
    for path in sorted(SRC.glob("*.py")):
        found = _second_dispatch(ast.parse(path.read_text(encoding="utf-8")))
        if path.name != "path_norms.py" and found:
            offenders[path.name] = found
    assert not offenders, f"a second energy dispatch: {offenders}"


def test_the_scan_sees_a_second_dispatch():
    tree = ast.parse(
        "from .path_norms import _PairCost, _pvar_dp\n"
        "def _energy(cost, spec):\n"
        "    return _pvar_dp(cost)\n"
    )
    assert _second_dispatch(tree) == [
        "imports _pvar_dp", "defines _energy (line 2)"
    ]
