"""Seeded random broadcast-pi terms for the correspondence checks.

The terms are built to make renaming necessary.  Binders draw from the
same names that channels and payloads use, so an input variable, a
restriction or a ``rec`` parameter often has the name of something free
around it.  Recursion variables draw from two names, so a ``rec`` nested
in another often shadows it.  Every restriction sends its own name away
(extrusion), often to a sibling that mentions that name free.

Every term stays in the fragment the translation covers:
- no restriction under a prefix;
- no ``rec`` whose body mentions a name bound outside it;
- no ``rec`` whose body mentions a name that a restriction anywhere in
  the term binds: a definition is global in the target, so a
  restriction that moves around a call captures the definition's names;
- no parallel composition under a prefix: the translation puts both
  branches in one component, where a broadcast of one branch does not
  reach the other.
The name ``k`` is never bound, so every scope has a free name to use.
"""

from __future__ import annotations

import random

from abcwb.bpi import BCall, BNu, BPar, BRec, GIn, GNil, GOut, GSum, GTau, PG

BINDABLE = ("a", "b", "c")
RESTRICTED = ("a", "b")
NAMES = BINDABLE + ("k",)
RECS = ("A", "B")


def gen_term(rng: random.Random, depth: int = 3):
    """A term: parallel components and restrictions at the top level."""
    return _top(rng, depth, frozenset())


def _top(rng, depth, outer):
    # ``outer`` holds the names bound around this point, which no rec
    # below may mention
    k = rng.randrange(4) if depth > 0 else 0
    if k == 1:
        return BPar(_top(rng, depth - 1, outer), _top(rng, depth - 1, outer))
    if k == 2:
        n = rng.choice(RESTRICTED)
        inner = outer | {n}
        cont = _cont(rng, depth - 1, NAMES, inner, {})
        send = PG(GOut(rng.choice(NAMES), (n,), cont))
        return BNu(n, BPar(send, _top(rng, depth - 1, inner)))
    return _cont(rng, depth, NAMES, outer, {})


def _cont(rng, depth, pool, outer, recs):
    """What may follow a prefix: a sum of prefixes, a rec or a call to an
    enclosing one; ``pool`` holds the names that may occur here and
    ``recs`` the arity of each recursion variable in scope."""
    k = rng.randrange(4) if depth > 0 else 0
    if k == 1 and recs:
        name = rng.choice(sorted(recs))
        return BCall(name, tuple(rng.choice(pool) for _ in range(recs[name])))
    if k == 2:
        name = rng.choice(RECS)
        params = tuple(rng.sample(BINDABLE, rng.randrange(3)))
        # the body sees its parameters and the names nothing binds
        body_pool = tuple(sorted(set(pool) - outer - set(RESTRICTED) | set(params)))
        body_recs = {**recs, name: len(params)}
        body = _guard(rng, depth - 1, body_pool, frozenset(params), body_recs)
        return BRec(name, params, body, tuple(rng.choice(pool) for _ in params))
    return PG(_guard(rng, depth, pool, outer, recs))


def _guard(rng, depth, pool, outer, recs):
    k = rng.randrange(5) if depth > 0 else 0
    if k == 0:
        return GNil()
    if k == 1:
        vals = tuple(rng.choice(pool) for _ in range(rng.randrange(3)))
        return GOut(rng.choice(pool), vals, _cont(rng, depth - 1, pool, outer, recs))
    if k == 2:
        vars_ = tuple(rng.sample(BINDABLE, rng.randrange(1, 3)))
        inner_pool = tuple(sorted({*pool, *vars_}))
        cont = _cont(rng, depth - 1, inner_pool, outer | set(vars_), recs)
        return GIn(rng.choice(pool), vars_, cont)
    if k == 3:
        return GTau(_cont(rng, depth - 1, pool, outer, recs))
    return GSum(_guard(rng, depth - 1, pool, outer, recs), _guard(rng, depth - 1, pool, outer, recs))


# Separators put between the tokens of a shown term; the empty one is
# replaced by a space between two words, and the comments hold tokens
# that must be skipped.
_SEPS = ("", " ", "  ", "\n", "\t", " # note\n", "\n# ( | + nil\n  ")


def show(term, rng: random.Random) -> str:
    """Concrete ``.bpi`` text that parses to ``term``, with random
    spaces, newlines and comments between its tokens and random
    parentheses around its processes."""
    toks = _show_proc(term, rng)
    out = [toks[0]]
    for prev, tok in zip(toks, toks[1:]):
        sep = rng.choice(_SEPS)
        if not sep and prev[-1].isalnum() and tok[0].isalnum():
            sep = " "
        out += (sep, tok)
    return "".join(out)


def _names(open_, names, close):
    toks = [open_]
    for i, n in enumerate(names):
        toks += [","] * (i > 0) + [n]
    return toks + [close]


def _show_proc(p, rng):
    if isinstance(p, BPar):
        return _show_proc(p.left, rng) + ["|"] + _show_component(p.right, rng)
    return _show_component(p, rng)


def _show_component(p, rng):
    # only a whole component may be a sum that starts with nil, or one
    # whose left summand is a group
    if isinstance(p, PG) and isinstance(p.g, GSum) and rng.random() < 0.3:
        left = ["("] + _show_proc(PG(p.g.left), rng) + [")"]
        return left + ["+"] + _show_summand(p.g.right, rng, False)
    if isinstance(p, PG) and rng.random() < 0.8:
        return _show_sum(p.g, rng, False)
    return _show_atom(p, rng, False)


def _leading_nil(p):
    """Whether ``p`` is a sum whose first summand is nil."""
    if not (isinstance(p, PG) and isinstance(p.g, GSum)):
        return False
    g = p.g
    while isinstance(g, GSum):
        g = g.left
    return isinstance(g, GNil)


def _ends_open(p):
    """Whether a ``+`` after ``p`` would add to a sum inside it."""
    if isinstance(p, BNu):
        return _ends_open(p.inner)
    return isinstance(p, PG) and not isinstance(p.g, GNil)


def _show_atom(p, rng, tail):
    """A term the parser reads as one continuation; ``tail`` tells
    whether a ``+`` follows it."""
    if (isinstance(p, BPar) or (tail and _ends_open(p)) or _leading_nil(p)
            or rng.random() < 0.2):
        return ["("] + _show_proc(p, rng) + [")"]
    if isinstance(p, BNu):
        return ["nu", p.name] + _show_atom(p.inner, rng, tail)
    if isinstance(p, BRec):
        return (["rec", p.name] + _names("(", p.params, ")") + ["."]
                + _show_sum(p.body, rng, False) + ["@"] + _names("(", p.args, ")"))
    if isinstance(p, BCall):
        if not p.args and rng.random() < 0.5:
            return [p.name]
        return [p.name] + _names("(", p.args, ")")
    return _show_sum(p.g, rng, tail)


def _show_summand(g, rng, tail):
    """A right summand: one prefix, so a sum there is a group."""
    if isinstance(g, GSum):
        return ["("] + _show_sum(g, rng, False) + [")"]
    return _show_sum(g, rng, tail)


def _show_sum(g, rng, tail):
    if isinstance(g, GSum):
        return _show_sum(g.left, rng, True) + ["+"] + _show_summand(g.right, rng, tail)
    if isinstance(g, GNil):
        return ["nil"]
    cont = _show_atom(g.cont, rng, tail)
    if isinstance(g, GTau):
        return ["tau", "."] + cont
    if isinstance(g, GOut):
        return [g.chan] + _names("<", g.vals, ">") + ["."] + cont
    return [g.chan] + _names("(", g.vars, ")") + ["."] + cont
