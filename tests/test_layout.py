"""Module boundaries: no hamlab module uses another module's private names,
whether imported by name (`from .rotation import _place`) or reached through
an imported module (`from . import rotation` then `rotation._place`).  The
soundness checks of every module are explicit raises, not `assert`
statements, which `python -O` strips.  Every function, class, method and
property of the package is read somewhere in src/, bench/ or tests/, and in
src/ or bench/ unless a keep-list gives the reason it is not, every
option of its functions and methods is passed by some call there, every
function bench/tracing.py wraps is still bound where it looks, and no module
but `__init__` imports a hamlab name it never reads, unless
bench/tracing.py wraps that module's binding of it."""

import ast
import importlib
import math
import pathlib
from collections import defaultdict

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


# modules whose soundness checks must survive `python -O`: all of them
EXPLICIT_CHECKS = tuple(sorted(MODULES))


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


ROOT = pathlib.Path(__file__).resolve().parent.parent
# definitions that only a library calls: argparse reports through _Parser.error
CALLED_FROM_OUTSIDE = {"cli._Parser.error"}


def _definitions(tree, module):
    """(qualified name, name, is a method) of each module-level function and
    class and of each method or property, dunder methods aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{module}.{node.name}.{item.name}", item.name, True


def _references(tree, exports=False):
    """(names read, attributes read) of `tree`.  Names are identifiers and
    imported names (unless `exports`: the imports of `__init__` are its
    export list); attributes are attribute accesses.  Both take the parts of
    string constants that spell a dotted name, as `getattr` and
    bench/tracing.py bind by."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.alias) and not exports:
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
                attrs.update(parts)
    return names, attrs


def _unread(folders):
    """The definitions of the package that no file in `folders` reads: a
    function or class by name or attribute, a method or property by
    attribute."""
    names, attrs = set(), set()
    for folder in folders:
        for path in (ROOT / folder).rglob("*.py"):
            tree = ast.parse(path.read_text())
            n, a = _references(tree, exports=path.name == "__init__.py")
            names |= n
            attrs |= a
    unread = {
        qualified
        for module in sorted(MODULES)
        for qualified, name, method in _definitions(
            ast.parse((PACKAGE / f"{module}.py").read_text()), module
        )
        if name not in attrs and (method or name not in names)
    }
    return sorted(unread - CALLED_FROM_OUTSIDE)


def test_every_definition_is_referenced():
    assert _unread(("src", "bench", "tests")) == []


# definitions that only tests read, each with the reason it stays
READ_ONLY_BY_TESTS = {
    "applications.FConnPipelineResult.certified":
        "the pipeline's premise verdict, for library callers",
    "conditions.FConnSpec.affine": "a custom demand f for library callers; the CLI takes presets",
    "conditions.FConnSpec.constant": "a custom demand f for library callers; the CLI takes presets",
    "conditions.alpha_value": "a scalar calculator of the paper's constants that README lists",
    "conditions.p2_failure_bound": "a scalar calculator of the paper's constants that README lists",
    "graph.Path.reversed": "the same path from its other end, for library callers",
    "rotation.PathBuf.at": "reads the buffer by logical position, as its model tests do",
    "rotation.PathBuf.position": "reads the buffer by vertex, as its model tests do",
    "rotation.reconstruct_path": "README's way to rebuild a family path from its runs",
}


def test_every_definition_is_read_by_the_package_or_kept():
    """A definition that src/ and bench/ do not read is code that no run
    reaches; it stays only with a reason in READ_ONLY_BY_TESTS."""
    assert _unread(("src", "bench")) == sorted(READ_ONLY_BY_TESTS)


# bindings bench/tracing.py still names though hamlab no longer has them;
# they go with a change to the benchmark alone
STALE_TRACED = {("applications", "rotate"), ("applications", "extend")}


def _traced_bindings(source):
    """(module, function name) of each binding in the `FUNCTIONS` table of
    bench/tracing.py, read from its source without importing it."""
    for node in ast.parse(source).body:
        targets = node.targets if isinstance(node, ast.Assign) else ()
        if any(isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in targets):
            for entry in node.value.elts:
                _, name, modules = entry.elts
                for module in modules.elts:
                    yield module.id, name.value


def test_traced_functions_exist():
    bindings = set(_traced_bindings((ROOT / "bench" / "tracing.py").read_text()))
    assert ("closing", "build_contracted") in bindings
    assert ("closing", "model_endpoint_paths") in bindings
    missing = {
        (module, name)
        for module, name in bindings
        if not hasattr(importlib.import_module(f"hamlab.{module}"), name)
    }
    assert missing <= STALE_TRACED



def _unread_imports(source, module, kept=frozenset()):
    """The hamlab names that `source` (the text of hamlab.<module>) imports
    and never reads, other than those in `kept`, in line order."""
    tree = ast.parse(source)
    imported = []  # (line, local name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0 or (node.module or "").split(".")[0] == "hamlab":
                imported += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "hamlab":
                    imported.append((node.lineno, a.asname or "hamlab"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{module}:{line} imports {name}"
        for line, name in sorted(imported)
        if name not in read and name not in kept
    ]


def test_no_unread_hamlab_imports():
    traced = set(_traced_bindings((ROOT / "bench" / "tracing.py").read_text()))
    found = [
        hit
        for module in sorted(MODULES - {"__init__"})
        for hit in _unread_imports(
            (PACKAGE / f"{module}.py").read_text(),
            module,
            {name for bound_in, name in traced if bound_in == module},
        )
    ]
    assert found == []


def test_import_checker_sees_unread_names():
    source = """
from .graph import Path, edge_key
from . import rotation
from .rotation import rotate
import hamlab.pivots as pv
import os

def f():
    return Path(()), rotation
"""
    assert _unread_imports(source, "closing", {"rotate"}) == [
        "closing:2 imports edge_key",
        "closing:5 imports pv",
    ]
    assert "closing:4 imports rotate" in _unread_imports(source, "closing")


def _options(tree, module):
    """(qualified name, name, index, parameter) of each parameter with a
    default of a module-level function or a method, dunders aside.  `index`
    is the parameter's place among the arguments a call passes (so `self`
    and `cls` do not count); it is None for a keyword-only parameter."""
    functions = [(module, node, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in item.decorator_list
                    )
                    functions.append((f"{module}.{node.name}", item, 0 if static else 1))
    for prefix, fn, skip in functions:
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], first - skip):
            yield f"{prefix}.{fn.name}", fn.name, index, arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{prefix}.{fn.name}", fn.name, None, arg.arg


def _calls(tree):
    """(name, positional arguments, keywords) of each call in `tree` of a name
    or an attribute.  A `*` argument passes every position and a `**`
    argument every keyword, spelled "**"."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        count = math.inf if starred else len(node.args)
        yield name, count, {kw.arg or "**" for kw in node.keywords}


def _unpassed(options, calls):
    """The options that no call of their function's name passes."""
    most, keywords = defaultdict(int), defaultdict(set)
    for name, count, passed in calls:
        most[name] = max(most[name], count)
        keywords[name] |= passed
    return [
        f"{qualified}({param})"
        for qualified, name, index, param in options
        if not (index is not None and most[name] > index or {param, "**"} & keywords[name])
    ]


def test_every_option_is_passed():
    """A parameter with a default must be passed, by keyword or by position,
    in some call of its function in src/, bench/ or tests/; an option that
    no call sets is code that no caller reaches."""
    calls = [
        call
        for folder in ("src", "bench", "tests")
        for path in (ROOT / folder).rglob("*.py")
        for call in _calls(ast.parse(path.read_text()))
    ]
    options = [
        option
        for module in sorted(MODULES)
        for option in _options(ast.parse((PACKAGE / f"{module}.py").read_text()), module)
    ]
    assert _unpassed(options, calls) == []


def test_option_checker_sees_each_way_of_passing():
    source = """
def f(a, b=1, c=2, *, d=3, e=4):
    pass

def h(a=0, *, b=1):
    pass

class K:
    def m(self, x=0, y=1):
        pass

    @staticmethod
    def s(x=0):
        pass

f(0, 1, d=5)
K().m(2)
h(*rest, **more)
"""
    tree = ast.parse(source)
    assert _unpassed(_options(tree, "mod"), _calls(tree)) == [
        "mod.f(c)", "mod.f(e)", "mod.K.m(y)", "mod.K.s(x)"
    ]
