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

``freshen_binders`` is the one renaming before a step: it gives every
restriction a name that no other restriction and no free name of the
term uses (Barendregt's variable convention).  After it, a step never
brings two names together: an extruded name is new to every sibling,
and a sibling's input binder that a received name would capture is
renamed by ``substitute``.  Only ``sys_deliver`` still renames a
restriction, because a message from outside (a bisimulation stimulus)
may name it.

Replication is bounded by a fuel counter carried on the node itself so
exhaustion is part of the state: a bang out of fuel has no steps and
``spent`` finds it, which exploration reports as truncation.

A component's sends and receptions depend only on the component, so
``system_steps`` and ``sys_deliver`` keep them in a caller's ``memo``
dict: a walk passes one for its lifetime, a one-off caller a fresh one.
Under ``c`` it keeps the steps of component ``c``, under ``(c,)`` its
``component.prefixes`` list, from which both its sends and its
receptions are read, and under ``(c, pred, values)`` what it becomes on
receiving that message.  Its lists are shared, so no caller may change
them.  Every component it keeps, a send's or a reception's successor, is
canonicalised once, when it is stored, and interned: the table under
``memo[()]`` maps each canonical component to itself, so equal
successors are one object per memo and compare by identity.  The table
lives and dies with its memo, and nothing reads an order from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .attributes import Universe, is_ff, restrict_predicate
from .component import deliver, output_steps, prefixes
from .syntax import (
    Bang,
    Comp,
    Definitions,
    Nu,
    Predicate,
    SysPar,
    System,
    Value,
    canonicalize,
    free_names,
    gensym,
    map_children,
    rename,
    spine,
)


@dataclass(frozen=True)
class SOut:
    """Broadcast label: extruded (bound) names, predicate, payload."""

    bound: frozenset[str]
    pred: Predicate
    values: tuple[Value, ...]


class Tau:
    def __repr__(self) -> str:
        return "TAU"


TAU = Tau()


def set_fuel(sys: System, fuel: int) -> System:
    """Stamp a replication budget on every bang that has none yet."""
    if type(sys) is Comp:
        return sys  # processes hold no bangs
    if type(sys) is Bang and sys.fuel is None:
        sys = Bang(sys.inner, fuel)
    return map_children(sys, set_fuel, fuel)


def spent(sys: System) -> bool:
    """Whether a bang of the system has run out of replication fuel."""
    return any(type(s) is Bang and s.fuel == 0 for s in spine(sys))


def msg_names(pred: Predicate, values) -> frozenset[str]:
    """The names a message mentions, in its predicate or its payload."""
    return free_names(pred).union(*map(free_names, values))


def freshen_binders(sys: System) -> System:
    """Rename binders so restriction names are pairwise distinct and do
    not collide with any free name of the whole term."""
    return _freshen(sys, set(free_names(sys)))


def _freshen(s: System, taken: set) -> System:
    # ``taken`` grows by every restriction name kept so far
    if type(s) is Comp:
        return s
    if type(s) is Nu:
        if s.name in taken:
            fresh = gensym(frozenset(taken) | free_names(s.inner))
            s = Nu(fresh, rename(s.inner, {s.name: fresh}))
        taken.add(s.name)
    return map_children(s, _freshen, taken)


def system_steps(
    sys: System,
    defs: Definitions,
    universe: Universe,
    memo: dict,
) -> list[tuple[object, System]]:
    """All output and silent steps of a closed system.

    Returns ``(label, successor)`` pairs with labels ``SOut`` or ``TAU``.
    ``memo`` serves one ``defs`` and ``universe`` only.
    """
    return _steps(freshen_binders(sys), defs, universe, memo)


def comp_prefixes(c: Comp, defs: Definitions, memo: dict) -> list:
    """The ``component.prefixes`` list of ``c``, kept in ``memo`` under
    ``(c,)``."""
    key = (c,)
    out = memo.get(key)
    if out is None:
        out = memo[key] = prefixes(c.env, c.proc, defs)
    return out


def receives(c: Comp, pred: Predicate, values, defs: Definitions, memo: dict) -> list:
    """Every component ``c`` becomes by receiving a message, kept in
    ``memo`` under ``(c, pred, values)``; none when it discards it."""
    key = (c, pred, values)
    out = memo.get(key)
    if out is None:
        out = memo[key] = [
            _canonical(Comp(env2, cont), memo)
            for env2, cont in deliver(comp_prefixes(c, defs, memo), pred, values)
        ]
    return out


def _canonical(c: Comp, memo: dict) -> Comp:
    """The canonical form of ``c``, one object per ``memo``: the table
    under ``memo[()]`` maps each canonical component to itself."""
    form = canonicalize(c)
    return memo.setdefault((), {}).setdefault(form, form)


def _steps(sys, defs, universe, memo):
    if isinstance(sys, Comp):
        out = memo.get(sys)
        if out is None:
            out = memo[sys] = [
                # a send nobody can satisfy is silent
                (TAU if is_ff(pred, universe) else SOut(frozenset(), pred, values),
                 _canonical(Comp(env2, cont), memo))
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


def sys_deliver(
    sys: System,
    pred: Predicate,
    values: tuple[Value, ...],
    defs: Definitions,
    memo: dict,
) -> list[System]:
    """All ways a system can absorb one broadcast message.

    Every returned system is a valid input outcome; a component that
    discards contributes itself unchanged.  Parallel branches all handle
    the message, so outcomes multiply across them.  An outcome in which
    every part discards is ``sys`` itself, not a rebuilt equal node, so
    the subtrees a message leaves unchanged stay shared.
    """
    if isinstance(sys, Comp):
        return receives(sys, pred, values, defs, memo) or [sys]

    if isinstance(sys, SysPar):
        lefts = sys_deliver(sys.left, pred, values, defs, memo)
        rights = sys_deliver(sys.right, pred, values, defs, memo)
        left, right = sys.left, sys.right
        return [
            sys if l is left and r is right else SysPar(l, r)
            for l in lefts
            for r in rights
        ]

    if isinstance(sys, Bang):
        if sys.fuel == 0:
            return [sys]
        fuel = None if sys.fuel is None else sys.fuel - 1
        out = []
        for inner2 in sys_deliver(sys.inner, pred, values, defs, memo):
            if inner2 == sys.inner:
                # a copy that ignores the message is folded back into the bang
                out.append(sys)
            else:
                out.append(SysPar(inner2, Bang(sys.inner, fuel)))
        return out

    if isinstance(sys, Nu):
        y, inner = sys.name, sys.inner
        names = msg_names(pred, values)
        if y in names:
            fresh = gensym(free_names(inner) | names | {y})
            inner = rename(inner, {y: fresh})
            y = fresh
        return [
            sys if inner2 is sys.inner and y == sys.name else Nu(y, inner2)
            for inner2 in sys_deliver(inner, pred, values, defs, memo)
        ]

    raise TypeError(sys)
