"""Module boundaries: no hamlab module uses another module's private names,
whether imported by name (`from .rotation import _place`) or reached through
an imported module (`from . import rotation` then `rotation._place`).  The
soundness checks of the rotation engine and the closing routes are explicit
raises, not `assert` statements, which `python -O` strips."""

import ast
import pathlib

import hamlab

PACKAGE = pathlib.Path(hamlab.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _private_uses(source, module):
    """Private names of other hamlab modules that `source` (the text of
    hamlab.<module>) imports or reaches as an attribute."""
    tree = ast.parse(source)
    aliases = {}  # local name -> dotted hamlab module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "hamlab":
                    continue
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    aliases["hamlab"] = "hamlab"
        elif isinstance(node, ast.ImportFrom):
            if not (node.level > 0 or (node.module or "").split(".")[0] == "hamlab"):
                continue
            for alias in node.names:
                if _private(alias.name):
                    yield f"{module}:{node.lineno} imports {alias.name}"
                elif node.module in (None, "hamlab") and alias.name in MODULES:
                    aliases[alias.asname or alias.name] = f"hamlab.{alias.name}"
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _private(node.attr)):
            continue
        dotted = _dotted(node.value)
        if dotted is None:
            continue
        head, _, rest = dotted.partition(".")
        if head not in aliases:
            continue
        target = aliases[head] + ("." + rest if rest else "")
        if target != f"hamlab.{module}":
            yield f"{module}:{node.lineno} uses {target}.{node.attr}"


def test_no_cross_module_private_names():
    assert len(MODULES) > 1
    found = [
        hit
        for module in sorted(MODULES)
        for hit in _private_uses((PACKAGE / f"{module}.py").read_text(), module)
    ]
    assert found == []


def test_checker_sees_each_form_of_private_use():
    source = """
from .rotation import _place, rotate
from . import rotation, pivots as pv
import hamlab
import hamlab.closing as hc

rotation._place(1)
pv._closure(2)
hamlab.graph._helper
hc._absorb
rotation.rotate
self._cache
"""
    assert set(_private_uses(source, "applications")) == {
        "applications:2 imports _place",
        "applications:7 uses hamlab.rotation._place",
        "applications:8 uses hamlab.pivots._closure",
        "applications:9 uses hamlab.graph._helper",
        "applications:10 uses hamlab.closing._absorb",
    }


# modules whose soundness checks must survive `python -O`
EXPLICIT_CHECKS = ("closing", "rotation")


def _asserts(source, module):
    return [
        f"{module}:{node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
    ]


def test_no_assert_statements_in_soundness_modules():
    found = [
        hit
        for module in EXPLICIT_CHECKS
        for hit in _asserts((PACKAGE / f"{module}.py").read_text(), module)
    ]
    assert found == []


def test_assert_checker_sees_asserts():
    source = """
def f(x):
    assert x, "message"
    if not x:
        raise AssertionError("kept under -O")
"""
    assert _asserts(source, "closing") == ["closing:3"]
