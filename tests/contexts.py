"""One-hole system contexts, for checking that bisimilarity is a
congruence.

A context is a list of layers, innermost first.  Each layer wraps the
system built so far:

- ``("hole || C", C)``: beside component ``C``, on its left;
- ``("C || hole", C)``: beside component ``C``, on its right;
- ``("nu", None)``: under a restriction of the name ``_ctxn``, which no
  generated term mentions;
- ``("!", None)``: under a replication.  It carries no fuel of its own,
  so the ``repl_bound`` of the comparison bounds it like any other bang.

``plug`` builds the system a context makes of a term, and
``draw_context`` draws one to three layers from a seeded generator.
"""

from __future__ import annotations

import random

from abcwb.syntax import (
    AttributeEnv,
    Bang,
    Comp,
    In,
    Lit,
    NIL,
    Nu,
    Out,
    SysPar,
    TT_,
    value_sort_key,
)

LAYERS = ("hole || C", "C || hole", "nu", "!")


def plug(layers, hole):
    """The system that the context ``layers`` makes of ``hole``."""
    for op, comp in layers:
        if op == "hole || C":
            hole = SysPar(hole, comp)
        elif op == "C || hole":
            hole = SysPar(comp, hole)
        elif op == "nu":
            hole = Nu("_ctxn", hole)
        else:
            hole = Bang(hole)
    return hole


def listener(env: AttributeEnv) -> Comp:
    """A component that takes one message of arity one and stops."""
    return Comp(env, In(TT_, ("_ctxv",), NIL))


def shouter(env: AttributeEnv, payload) -> Comp:
    """A component that broadcasts ``payload`` to everyone and stops."""
    return Comp(env, Out(payload, TT_, NIL))


def draw_context(rng: random.Random, values) -> list:
    """One to three layers.  Each ``C`` is an inert, shouting or listening
    component whose attribute ``cx`` and payload are drawn from
    ``values``; with no values both are left out."""
    vals = sorted(values, key=value_sort_key)
    layers = []
    for _ in range(rng.randrange(1, 4)):
        op = LAYERS[rng.randrange(4)]
        comp = None
        if op in LAYERS[:2]:
            kind = rng.randrange(3)
            env = AttributeEnv.of({"cx": rng.choice(vals)} if vals else {})
            if kind == 0:
                comp = Comp(env, NIL)
            elif kind == 1:
                comp = shouter(env, (Lit(rng.choice(vals)),) if vals else ())
            else:
                comp = listener(env)
        layers.append((op, comp))
    return layers
