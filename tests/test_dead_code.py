"""Every top-level function, class and assigned name of the package is
named somewhere besides its own definition.

A name counts where code reads it (a name, an attribute or an import)
and where a string spells it, alone or dotted (``"output_steps"``,
``"syntax.canonicalize"``), since the benchmark finds its layers by
name.  Comments, docstrings and the definition's own body (recursion)
do not count.  The search covers ``src/``, ``tests/`` and
``perfbench/``, so a function only a test calls is still alive.
Dunder names (``__all__``) are read by Python itself and are exempt."""

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
