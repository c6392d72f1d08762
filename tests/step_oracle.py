"""Reference system steps, for differential tests.

``abcwb.system.system_steps`` renames nothing after ``freshen_binders``.
The steps kept here rename once more: an extruded name that a sibling
mentions or binds is renamed away from it (``_avoid_clash``), and when
the new name is that of a restriction further out, the restriction is
vacuous and keeps its place under yet another name.  The two give the
same steps up to the spelling of the extruded names, which tests check.
"""

from abcwb.attributes import is_ff, restrict_predicate
from abcwb.component import output_steps
from abcwb.syntax import Bang, Comp, Nu, SysPar, System, bound_names, free_names, gensym
from abcwb.system import SOut, TAU, comp_prefixes, freshen_binders, msg_names, sys_deliver

from rename_oracle import rename_free


def system_steps(sys, defs, universe, memo):
    return _steps(freshen_binders(sys), defs, universe, memo)


def _steps(sys, defs, universe, memo):
    if isinstance(sys, Comp):
        out = memo.get(sys)
        if out is None:
            out = memo[sys] = [
                # a send nobody can satisfy is silent
                (TAU if is_ff(pred, universe) else SOut(frozenset(), pred, values),
                 Comp(env2, cont))
                for pred, values, env2, cont in output_steps(comp_prefixes(sys, defs, memo))
            ]
        return out

    if isinstance(sys, SysPar):
        out = []
        for mine, other, join in (
            (sys.left, sys.right, SysPar),
            (sys.right, sys.left, lambda r, l: SysPar(l, r)),
        ):
            for lab, mine2 in _steps(mine, defs, universe, memo):
                if lab is TAU:
                    out.append((TAU, join(mine2, other)))
                    continue
                lab, mine2 = _avoid_clash(lab, mine2, other)
                for other2 in sys_deliver(other, lab.pred, lab.values, defs, memo):
                    out.append((lab, join(mine2, other2)))
        return out

    if isinstance(sys, Bang):
        if sys.fuel == 0:
            return []
        fuel = None if sys.fuel is None else sys.fuel - 1
        out = []
        for lab, inner2 in _steps(sys.inner, defs, universe, memo):
            out.append((lab, SysPar(inner2, Bang(sys.inner, fuel))))
        return out

    if isinstance(sys, Nu):
        y = sys.name
        out = []
        for lab, inner2 in _steps(sys.inner, defs, universe, memo):
            if lab is TAU:
                out.append((TAU, Nu(y, inner2)))
                continue
            if y in lab.bound:
                # a name extruded from below was renamed to y away from its
                # siblings, which do not mention y: this restriction is
                # vacuous and keeps its place under another name
                fresh = gensym(free_names(inner2) | lab.bound)
                out.append((lab, Nu(fresh, inner2)))
                continue
            pred_names = free_names(lab.pred)
            value_names = frozenset().union(*map(free_names, lab.values))
            if y in pred_names:
                restricted = restrict_predicate(lab.pred, y)
                if is_ff(restricted, universe):
                    # the outside can never satisfy it: silent step, and
                    # names extruded so far are re-closed around the result
                    succ = inner2
                    for b in sorted(lab.bound):
                        succ = Nu(b, succ)
                    out.append((TAU, Nu(y, succ)))
                else:
                    out.append(
                        (SOut(lab.bound, restricted, lab.values), Nu(y, inner2))
                    )
            elif y in value_names:
                # scope extrusion: the binder dissolves into the label
                out.append((SOut(lab.bound | {y}, lab.pred, lab.values), inner2))
            else:
                out.append((lab, Nu(y, inner2)))
        return out

    raise TypeError(sys)


def _avoid_clash(lab: SOut, origin: System, sibling: System):
    """Rename extruded bound names of a label away from a sibling's names;
    returns the label and its origin."""
    if not lab.bound:
        return lab, origin
    clashing = lab.bound & (free_names(sibling) | bound_names(sibling))
    if not clashing:
        return lab, origin
    pred, values, bound = lab.pred, lab.values, set(lab.bound)
    for b in sorted(clashing):
        avoid = (
            free_names(sibling)
            | bound_names(sibling)
            | free_names(origin)
            | bound_names(origin)
            | msg_names(pred, values)
        )
        fresh = gensym(avoid)
        pred = rename_free(pred, b, fresh)
        values = tuple(rename_free(v, b, fresh) for v in values)
        origin = rename_free(origin, b, fresh)
        bound.discard(b)
        bound.add(fresh)
    return SOut(frozenset(bound), pred, values), origin
