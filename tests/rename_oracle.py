"""Reference renaming, for differential tests.

``abcwb.syntax.rename`` renames any number of free names at once.  This
module keeps the single-name renaming it replaced, ``rename_free``, and
renames by a mapping the way callers did before: every old name first
to a temporary that no name of the term uses, then every temporary to
its new name, so that chained maps such as ``a -> b, b -> a`` do not
collapse.
"""

from abcwb.syntax import In, Name, Nu, Var, bound_names, free_names, fresh_names, gensym, map_children


def rename_free(node, old: str, new: str):
    """Rename every free occurrence of name ``old`` (atoms and vars) to ``new``."""
    if old not in free_names(node):
        return node
    # below, ``old`` is free in the node, so no binder here is ``old``
    kind = type(node)
    if kind is Var:
        return Var(new)
    if kind is Name:
        return Name(new)
    if kind is In and new in node.vars:
        # would capture: alpha-rename the binder away first
        node = _alpha_in(node, new, gensym(free_names(node) | {old, new, *node.vars}))
    elif kind is Nu and node.name == new:
        fresh = gensym(free_names(node.inner) | {old, new})
        node = Nu(fresh, rename_free(node.inner, new, fresh))
    return map_children(node, rename_free, old, new)


def _alpha_in(node: In, var: str, fresh: str) -> In:
    """Alpha-convert one binder variable of an input prefix."""
    idx = node.vars.index(var)
    new_vars = node.vars[:idx] + (fresh,) + node.vars[idx + 1 :]
    return In(
        rename_free(node.pred, var, fresh),
        new_vars,
        rename_free(node.cont, var, fresh),
    )


def rename(node, sigma: dict):
    """Rename by ``sigma`` through temporaries that avoid every name of
    ``node`` and of ``sigma``."""
    fresh = fresh_names(free_names(node) | bound_names(node) | set(sigma) | set(sigma.values()))
    temps = {old: next(fresh) for old in sigma}
    for old, tmp in temps.items():
        node = rename_free(node, old, tmp)
    for old, new in sigma.items():
        node = rename_free(node, temps[old], new)
    return node
