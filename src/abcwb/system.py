"""System-level semantics: broadcast delivery, restriction, replication.

A step of a whole system is either an output (a broadcast that escaped
to the environment) or a silent step.  A broadcast with an unsatisfiable
predicate moves the sender without reaching anyone and surfaces as a
silent step.  Every component running in parallel with a sender is
offered the message and either accepts it or is left unchanged, so a
system input is always possible for every sibling (reception and
non-reception both count as handling the message); this is what makes
the parallel composition a broadcast rather than a handshake.

Restriction ``nu y C`` hides y: atoms of an outgoing predicate that
mention y are falsified for the outside.  If that kills the predicate
entirely the step degrades to a silent one and any names the message
had already extruded are re-closed around the continuation.  A hidden
name sent as a value with a y-free predicate escapes its scope (the
binder dissolves into the label's bound names).

Replication is bounded by a fuel counter carried on the node itself so
exhaustion is part of the state; exploration reports it as truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .attributes import Universe, is_ff, restrict_predicate
from .component import deliver, output_steps
from .syntax import (
    Bang,
    Comp,
    Definitions,
    Nu,
    Predicate,
    SysPar,
    System,
    Value,
    bound_names,
    children,
    free_names,
    gensym,
    map_children,
    names_in_value,
    rename_free,
)


@dataclass(frozen=True)
class SOut:
    """Broadcast label: extruded (bound) names, predicate, payload."""

    bound: frozenset[str]
    pred: Predicate
    values: tuple[Value, ...]


@dataclass(frozen=True)
class SIn:
    """Input label: the message a system is offered from outside."""

    pred: Predicate
    values: tuple[Value, ...]


class Tau:
    def __repr__(self) -> str:
        return "TAU"


TAU = Tau()

Label = object  # SOut | SIn | Tau


def set_fuel(sys: System, fuel: int) -> System:
    """Stamp a replication budget on every bang that has none yet."""
    if type(sys) is Comp:
        return sys  # processes hold no bangs
    if type(sys) is Bang and sys.fuel is None:
        sys = Bang(sys.inner, fuel)
    return map_children(sys, set_fuel, fuel)


def _msg_names(pred: Predicate, values) -> frozenset[str]:
    out = free_names(pred)
    for v in values:
        out |= names_in_value(v)
    return out


def freshen_binders(sys: System) -> System:
    """Rename binders so restriction names are pairwise distinct and do
    not collide with any free name of the whole term."""
    taken = set(free_names(sys))

    def walk(s: System) -> System:
        if type(s) is Comp:
            return s
        if type(s) is Nu:
            if s.name in taken:
                fresh = gensym(frozenset(taken) | free_names(s.inner))
                s = Nu(fresh, rename_free(s.inner, s.name, fresh))
            taken.add(s.name)
        return map_children(s, walk)

    return walk(sys)


def system_steps(
    sys: System,
    defs: Definitions,
    universe: Universe,
    rng=None,
    notes=None,
) -> list[tuple[object, System]]:
    """All output and silent steps of a closed system.

    Returns ``(label, successor)`` pairs with labels ``SOut`` or ``TAU``.
    ``notes``, when given, collects truncation reasons (exhausted
    replication fuel) as strings.
    """
    if bound_names(sys) & free_names(sys) or _dup_nu(sys):
        sys = freshen_binders(sys)
    return _steps(sys, defs, universe, rng, notes)


def _dup_nu(sys: System, seen=None) -> bool:
    """Whether two restrictions of a system bind the same name."""
    if seen is None:
        seen = set()
    if type(sys) is Comp:
        return False
    if type(sys) is Nu:
        if sys.name in seen:
            return True
        seen.add(sys.name)
    return any(_dup_nu(c, seen) for c in children(sys))


def _steps(sys, defs, universe, rng, notes):
    if isinstance(sys, Comp):
        out = []
        for pred, values, env2, cont in output_steps(sys.env, sys.proc, defs, rng):
            succ = Comp(env2, cont)
            if is_ff(pred, universe):
                out.append((TAU, succ))  # a send nobody can satisfy is silent
            else:
                out.append((SOut(frozenset(), pred, values), succ))
        return out

    if isinstance(sys, SysPar):
        out = []
        for lab, left2 in _steps(sys.left, defs, universe, rng, notes):
            if lab is TAU:
                out.append((TAU, SysPar(left2, sys.right)))
            else:
                lab, left2, sibling = _avoid_clash(lab, left2, sys.right)
                for right2 in sys_deliver(
                    sibling, lab.pred, lab.values, defs, universe, rng, notes
                ):
                    out.append((lab, SysPar(left2, right2)))
        for lab, right2 in _steps(sys.right, defs, universe, rng, notes):
            if lab is TAU:
                out.append((TAU, SysPar(sys.left, right2)))
            else:
                lab, right2, sibling = _avoid_clash(lab, right2, sys.left)
                for left2 in sys_deliver(
                    sibling, lab.pred, lab.values, defs, universe, rng, notes
                ):
                    out.append((lab, SysPar(left2, right2)))
        return out

    if isinstance(sys, Bang):
        if sys.fuel == 0:
            if notes is not None:
                notes.append("replication budget exhausted")
            return []
        fuel = None if sys.fuel is None else sys.fuel - 1
        out = []
        for lab, inner2 in _steps(sys.inner, defs, universe, rng, notes):
            out.append((lab, SysPar(inner2, Bang(sys.inner, fuel))))
        return out

    if isinstance(sys, Nu):
        y = sys.name
        out = []
        for lab, inner2 in _steps(sys.inner, defs, universe, rng, notes):
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
            value_names = frozenset()
            for v in lab.values:
                value_names |= names_in_value(v)
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
    """Rename extruded bound names of a label away from a sibling's names."""
    if not lab.bound:
        return lab, origin, sibling
    clashing = lab.bound & (free_names(sibling) | bound_names(sibling))
    if not clashing:
        return lab, origin, sibling
    pred, values, bound = lab.pred, lab.values, set(lab.bound)
    for b in sorted(clashing):
        avoid = (
            free_names(sibling)
            | bound_names(sibling)
            | free_names(origin)
            | bound_names(origin)
            | _msg_names(pred, values)
        )
        fresh = gensym(avoid)
        pred = rename_free(pred, b, fresh)
        values = tuple(rename_free(v, b, fresh) for v in values)
        origin = rename_free(origin, b, fresh)
        bound.discard(b)
        bound.add(fresh)
    return SOut(frozenset(bound), pred, values), origin, sibling


def sys_deliver(
    sys: System,
    pred: Predicate,
    values: tuple[Value, ...],
    defs: Definitions,
    universe: Universe,
    rng=None,
    notes=None,
) -> list[System]:
    """All ways a system can absorb one broadcast message.

    Every returned system is a valid input outcome; a component that
    discards contributes itself unchanged.  Parallel branches all handle
    the message, so outcomes multiply across them.  An outcome in which
    every part discards is ``sys`` itself, not a rebuilt equal node, so
    a caller can recognise a discarded message by identity.
    """
    if isinstance(sys, Comp):
        got = deliver(sys.env, sys.proc, pred, values, defs, rng)
        return [Comp(env2, cont) for env2, cont in got] if got else [sys]

    if isinstance(sys, SysPar):
        lefts = sys_deliver(sys.left, pred, values, defs, universe, rng, notes)
        rights = sys_deliver(sys.right, pred, values, defs, universe, rng, notes)
        left, right = sys.left, sys.right
        return [
            sys if l is left and r is right else SysPar(l, r)
            for l in lefts
            for r in rights
        ]

    if isinstance(sys, Bang):
        if sys.fuel == 0:
            if notes is not None:
                notes.append("replication budget exhausted")
            return [sys]
        fuel = None if sys.fuel is None else sys.fuel - 1
        out = []
        for inner2 in sys_deliver(sys.inner, pred, values, defs, universe, rng, notes):
            if inner2 == sys.inner:
                # a copy that ignores the message is folded back into the bang
                out.append(sys)
            else:
                out.append(SysPar(inner2, Bang(sys.inner, fuel)))
        return out

    if isinstance(sys, Nu):
        y, inner = sys.name, sys.inner
        if y in _msg_names(pred, values):
            fresh = gensym(free_names(inner) | _msg_names(pred, values) | {y})
            inner = rename_free(inner, y, fresh)
            y = fresh
        return [
            sys if inner2 is sys.inner and y == sys.name else Nu(y, inner2)
            for inner2 in sys_deliver(inner, pred, values, defs, universe, rng, notes)
        ]

    raise TypeError(sys)
