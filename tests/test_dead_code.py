"""Every top-level function, class and assigned name of the package is
named somewhere besides its own definition.

A name counts where code reads it (a name, an attribute or an import)
and where a string spells it, alone or dotted (``"output_steps"``,
``"syntax.canonicalize"``), since the benchmark finds its layers by
name.  Comments, docstrings and the definition's own body (recursion)
do not count.  The search covers ``src/``, ``tests/`` and
``perfbench/``, so a function only a test calls is still alive.
Dunder names (``__all__``) are read by Python itself and are exempt.

Every parameter of a package function is read, too, and read for more
than passing it on unchanged to a call of the function's own name: a
parameter that only recursion carries decides nothing."""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "abcwb"
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def references(tree: ast.AST) -> Counter:
    """How often each identifier is read or spelled in a string under
    ``tree``."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.asname or node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(p.isidentifier() for p in parts):
                out.update(parts)
    return out


def definitions(tree: ast.Module):
    """The top-level definitions of a module as (name, node) pairs:
    functions, classes and assigned names other than dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id, node


def unreferenced(module: str, others: Counter) -> list[str]:
    """The top-level definitions of ``module`` that neither ``module``
    outside their own definition nor ``others``, the ``references`` of
    the other files, names."""
    tree = ast.parse(module)
    total = references(tree) + others
    return sorted(
        name
        for name, node in definitions(tree)
        if total[name] <= references(node)[name]
    )


def test_unreferenced_definitions_are_found():
    module = (
        "def used(): return 1\n"
        "def loop(n): return loop(n - 1)  # loop\n"
        "def spelled(): pass\n"
        "def documented():\n"
        "    'documented and caller are not uses'\n"
        "class Shape: pass\n"
        "def caller(): return used()\n"
        "LIMIT, _SPARE = 3, 4\n"
        "_TABLE: dict = {}\n"
        "ALIAS = object  # never read\n"
        "__all__ = ['used']\n"
    )
    other = "import m\nLAYERS = ['m.spelled']\nx: 'Shape' = m.caller\nm.LIMIT\nm._TABLE\n"
    assert unreferenced(module, references(ast.parse(other))) == [
        "ALIAS", "_SPARE", "documented", "loop"]


def test_every_package_definition_is_named_elsewhere():
    texts = {p: p.read_text() for p in SOURCES}
    refs = {p: references(ast.parse(t)) for p, t in texts.items()}
    everywhere = sum(refs.values(), Counter())
    dead = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := unreferenced(texts[path], everywhere - refs[path]))
    }
    assert dead == {}


# Parameters kept on purpose: callers pass ``seed=`` to ``bisimilar``,
# whose docstring says that no verdict reads it.
KEPT_PARAMETERS = {"equivalence.py": ["bisimilar.seed"]}


def _calls_itself(callee: ast.expr, name: str) -> bool:
    """Whether ``callee`` is ``name`` or ``self.name``."""
    if isinstance(callee, ast.Attribute):
        return callee.attr == name and getattr(callee.value, "id", None) in ("self", "cls")
    return isinstance(callee, ast.Name) and callee.id == name


def unread_parameters(module: str) -> list[str]:
    """``function.parameter`` for each parameter of a function or method
    in ``module`` that the body never reads, or reads only as an
    argument of a call of the function's own name.  A method's first
    parameter, ``self`` or ``cls``, is exempt."""
    tree = ast.parse(module)
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    out = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = func.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if p]
        if id(func) in methods:
            params = params[1:]
        passed = set()  # the argument nodes of calls of the function itself
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and _calls_itself(node.func, func.name):
                passed.update(id(arg) for arg in node.args)
                passed.update(id(kw.value) for kw in node.keywords)
        reads = {
            node.id
            for stmt in func.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and id(node) not in passed
        }
        out += [f"{func.name}.{p}" for p in params if p not in reads]
    return sorted(out)


def test_unread_parameters_are_found():
    module = (
        "def used(a, *rest, k=1, **kw): return a, rest, k, kw\n"
        "def ignored(a, b): return a\n"
        "def carried(n, extra):\n"
        "    return 0 if n == 0 else carried(n - 1, extra)\n"
        "def changed(n, acc):\n"
        "    return acc if n == 0 else changed(n - 1, acc + 1)\n"
        "def keyword(n, *, depth): return keyword(n, depth=depth) if n else 0\n"
        "def closure(a):\n"
        "    def inner(): return a\n"
        "    return inner\n"
        "class C(B):\n"
        "    def method(self, x): return self.method(x)\n"
        "    def name(self): return 'self is exempt'\n"
        "    def __init__(self, text): super().__init__(text)\n"
    )
    assert unread_parameters(module) == [
        "carried.extra", "ignored.b", "keyword.depth", "method.x"]


def test_every_package_parameter_is_read():
    unread = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := unread_parameters(path.read_text()))
    }
    assert unread == KEPT_PARAMETERS
