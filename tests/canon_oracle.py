"""Reference alpha-canonicalisation, for differential tests.

``abcwb.syntax.canonicalize`` keeps each component's canonical forms in
a cache on the component and reuses them.  This module canonicalises
the plain way: one walk over the whole term, every component walked
again on every call, so tests can check the cached forms against it.
Like the library, it numbers each component's input binders from
``_v0``.  It skips only a subterm that holds no binder, found by a
search of its own, where the library skips by node kind.
"""

from abcwb.syntax import Comp, In, Name, Nu, Var, children, free_names, map_children


def _has_binders(node) -> bool:
    """Whether an input prefix or a restriction occurs in a node."""
    return type(node) in (In, Nu) or any(map(_has_binders, children(node)))


def canonicalize(sys):
    counter = {"n": 0, "v": 0}

    def pick(kind: str, taken) -> str:
        while True:
            cand = f"_{kind}{counter[kind]}"
            counter[kind] += 1
            if cand not in taken:
                return cand

    def scope(node, rho):
        # the binder's free names as they read after renaming
        names = free_names(node)
        return {rho.get(x, x) for x in names} if rho else names

    def walk(node, rho):
        if not _has_binders(node) and (not rho or free_names(node).isdisjoint(rho)):
            return node
        kind = type(node)
        if kind is In:
            taken = scope(node, rho)
            vars_ = tuple(pick("v", taken) for _ in node.vars)
            inner = _bind(rho, zip(node.vars, vars_))
            pred, cont = walk(node.pred, inner), walk(node.cont, inner)
            if vars_ == node.vars and pred is node.pred and cont is node.cont:
                return node
            return In(pred, vars_, cont)
        if kind is Nu:
            name = pick("n", scope(node, rho))
            inner = walk(node.inner, _bind(rho, ((node.name, name),)))
            return node if name == node.name and inner is node.inner else Nu(name, inner)
        if kind is Comp:
            # input binders are numbered from _v0 in each component
            counter["v"] = 0
        # a leaf that got here is a free name that rho renames
        if kind is Var:
            return Var(rho[node.name])
        if kind is Name:
            return Name(rho[node.atom])
        return map_children(node, walk, rho)

    return walk(sys, {})


def _bind(rho: dict, pairs) -> dict:
    inner = dict(rho)
    for old, new in pairs:
        if old == new:
            inner.pop(old, None)
        else:
            inner[old] = new
    return inner
