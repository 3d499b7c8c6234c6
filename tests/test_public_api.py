"""Every public name and every option has a caller outside its own tests.

A name in ``pathlift.__all__``, or a public attribute of an exported
class, must be read by the CLI, a demo, the benchmark, the acceptance
tests or another library module; otherwise it is dead surface and goes.
The scan is by name: an attribute counts as read wherever any object's
attribute of that name is. The benchmark's string constants count too,
because ``perfbench/tracing.py`` looks functions up by name. A string in
the library does not count: every public name sits in some ``__all__``.

An option is a parameter with a default of an exported callable (a class
counts with its constructor). Some call by the callable's name in those
same files must pass it, by keyword or by position; a call inside the
callable's own body, such as a method building its own class, does not
count. An option that only its tests set doubles a configuration.
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
    "__version__": "package metadata",
}

# the options kept without a setter, each with its reason
OPTIONS_ALLOWED = {}


def _files():
    """The files the scans read: (path, whether its strings count)."""
    src = ROOT / "src" / "pathlift"
    outside = [
        src / "cli.py",
        *(ROOT / "demos").glob("*.py"),
        *(ROOT / "perfbench").glob("*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]
    library = [p for p in src.glob("*.py") if p.name != "cli.py"]
    return [(p, True) for p in outside] + [(p, False) for p in library]


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
    return set().union(*(_read_names(p, strings) for p, strings in _files()))


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


def _signatures():
    """name -> signature of every exported callable that declares one."""
    signatures = {}
    for name in pathlift.__all__:
        obj = getattr(pathlift, name)
        if callable(obj):
            try:
                signatures[name] = inspect.signature(obj)
            except ValueError:  # an exception with the builtin __init__
                pass
    return signatures


def _options():
    """'callable.parameter' of every parameter with a default."""
    return {
        f"{name}.{p.name}"
        for name, sig in _signatures().items()
        for p in sig.parameters.values() if p.default is not p.empty
    }


def _set_options():
    """'callable.parameter' of every parameter some call passes, by
    keyword or by position, outside the callable's own body."""
    signatures, found = _signatures(), set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope | {node.name}
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            if name in signatures and name not in scope:
                n_pos = next((i for i, a in enumerate(node.args)
                              if isinstance(a, ast.Starred)), len(node.args))
                params = list(signatures[name].parameters)[:n_pos]
                found.update(f"{name}.{p}" for p in params)
                found.update(f"{name}.{kw.arg}" for kw in node.keywords
                             if kw.arg is not None)  # not **kwargs
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path, _ in _files():
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def test_every_option_has_a_setter():
    unset = sorted(_options() - _set_options() - set(OPTIONS_ALLOWED))
    assert not unset, f"options that no caller sets: {unset}"


def test_the_option_allowlist_names_options():
    stale = sorted(set(OPTIONS_ALLOWED) - _options())
    assert not stale, f"allowlisted options that are gone: {stale}"
