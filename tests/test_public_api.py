"""Every public name has a caller outside its own tests.

A name in ``pathlift.__all__``, or a public attribute of an exported
class, must be read by the CLI, a demo, the benchmark, the acceptance
tests or another library module; otherwise it is dead surface and goes.
The scan is by name: an attribute counts as read wherever any object's
attribute of that name is. The benchmark's string constants count too,
because ``perfbench/tracing.py`` looks functions up by name. A string in
the library does not count: every public name sits in some ``__all__``.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pathlift

ROOT = Path(__file__).resolve().parents[1]

# the names kept without a caller yet, each with its reason
ALLOWED = {
    "path_to_csv": "writes the path table that `norms` reads",
    "qm_to_csv": "writes the quantile table that `ot` reads",
    "pm_from_csv": "reads the path tables that `lift` and `demo` write",
    "monotone_multicoupling": "perfbench/tracing.py wraps it by name",
    "MonotoneCoupling": "the coupling that `ot` writes out",
    "sfpe_p_energy": "the p-energy an SFPK particle fixture is to report",
    "sfpe_holder_exponent": "the alpha window of an SFPK particle fixture",
    "HolderWindow": "the result of sfpe_holder_exponent",
    "pairwise_optimality_gap": "the per-level diagnostic lift.json is to hold",
    "OptimalityGap": "the result of pairwise_optimality_gap",
    "MeasurePathSample.from_measures":
        "the per-slice reference build of the array-built curves",
    "heat_flow_marginal": "the closed-form N(0, t) slice of the tests",
    "__version__": "package metadata",
}


def _read_names(path, strings):
    """Names and attributes the file reads, and with ``strings`` the
    dotted words of its string constants."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(
            node.value, str
        ):
            names.update(node.value.replace(".", " ").split())
    return names


def _callers():
    src = ROOT / "src" / "pathlift"
    outside = [
        src / "cli.py",
        *(ROOT / "demos").glob("*.py"),
        *(ROOT / "perfbench").glob("*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]
    names = set().union(*(_read_names(p, True) for p in outside))
    library = [p for p in src.glob("*.py") if p.name != "cli.py"]
    return names.union(*(_read_names(p, False) for p in library))


def _public_names():
    public = set()
    for name in pathlift.__all__:
        public.add(name)
        obj = getattr(pathlift, name)
        if inspect.isclass(obj) and obj.__module__.startswith("pathlift"):
            attrs = {a for a in vars(obj) if not a.startswith("_")}
            if dataclasses.is_dataclass(obj):
                attrs |= {f.name for f in dataclasses.fields(obj)}
            public |= {f"{name}.{a}" for a in attrs}
    return public


def test_every_public_name_has_a_caller():
    callers = _callers()
    unreached = sorted(
        name for name in _public_names() - set(ALLOWED)
        if name.rsplit(".", 1)[-1] not in callers
    )
    assert not unreached, f"public names with no caller: {unreached}"


def test_the_allowlist_names_public_names():
    stale = sorted(set(ALLOWED) - _public_names())
    assert not stale, f"allowlisted names that are gone: {stale}"
