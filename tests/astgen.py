"""Seeded random AST generation for round-trip and property tests.

Everything produced here is printable and re-parseable: attribute
identifiers come from a fixed declared pool, variables only occur under
an input binder, and the name pools are disjoint so resolution is
unambiguous.  A name value is a message name or a restriction name, so
a restriction can bind a name that occurs below it.
"""

from __future__ import annotations

import random
from dataclasses import fields, is_dataclass

from abcwb.syntax import (
    And,
    Arith,
    Attr,
    AttributeEnv,
    Aware,
    Bang,
    Bool,
    Cmp,
    Comp,
    FF_,
    In,
    Int,
    Lit,
    Name,
    NIL,
    Not,
    Nu,
    Or,
    Out,
    Par,
    Rand,
    Sum,
    SysPar,
    ThisAttr,
    TT_,
    TupleV,
    Upd,
    Var,
    free_names,
)

ATTRS = ("pa", "pb", "pc")
NAMES = ("ma", "mb", "mc")
VARS = ("vx", "vy", "vz")
NUS = ("ra", "rb")

CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")
ARITH_OPS = ("+", "-", "*")


def gen_value(rng: random.Random, depth: int = 1):
    k = rng.randrange(4 if depth > 0 else 3)
    if k == 0:
        return Int(rng.randrange(-2, 4))
    if k == 1:
        return Bool(rng.random() < 0.5)
    if k == 2:
        return Name(rng.choice(NAMES + NUS))
    return TupleV(tuple(gen_value(rng, depth - 1) for _ in range(rng.randrange(3))))


def gen_expr(rng: random.Random, scope, depth: int = 2, rand: bool = True):
    """An expression; ``rand=False`` leaves ``rand`` out, as a predicate
    must."""
    choices = ["lit", "attr", "this"]
    if scope:
        choices.append("var")
    if depth > 0:
        choices += ["arith", "rand"] if rand else ["arith"]
    k = rng.choice(choices)
    if k == "lit":
        return Lit(gen_value(rng))
    if k == "attr":
        return Attr(rng.choice(ATTRS))
    if k == "this":
        return ThisAttr(rng.choice(ATTRS))
    if k == "var":
        return gen_var(rng, scope)
    if k == "rand":
        return Rand(rng.randrange(1, 4))
    return Arith(
        rng.choice(ARITH_OPS),
        gen_expr(rng, scope, depth - 1, rand),
        gen_expr(rng, scope, depth - 1, rand),
    )


def _starts_with_bool(e) -> bool:
    if isinstance(e, Lit):
        return isinstance(e.value, Bool)
    if isinstance(e, Arith):
        return _starts_with_bool(e.lhs)
    return False


def gen_var(rng, scope):
    return Var(rng.choice(sorted(scope)))


def gen_pred(rng: random.Random, scope, depth: int = 2):
    choices = ["tt", "ff", "cmp"]
    if depth > 0:
        choices += ["and", "or", "not"]
    k = rng.choice(choices)
    if k == "tt":
        return TT_
    if k == "ff":
        return FF_
    if k == "cmp":
        op = rng.choice(CMP_OPS)
        lhs = gen_expr(rng, scope, 1, rand=False)
        if op in ("<", ">"):
            # a leading bool literal would read as the truth constant
            # followed by a delimiter, so keep these comparisons off it
            while _starts_with_bool(lhs):
                lhs = gen_expr(rng, scope, 1, rand=False)
        return Cmp(op, lhs, gen_expr(rng, scope, 1, rand=False))
    if k == "and":
        return And(gen_pred(rng, scope, depth - 1), gen_pred(rng, scope, depth - 1))
    if k == "or":
        return Or(gen_pred(rng, scope, depth - 1), gen_pred(rng, scope, depth - 1))
    return Not(gen_pred(rng, scope, depth - 1))


def gen_proc(rng: random.Random, scope=frozenset(), depth: int = 3):
    if depth <= 0:
        return NIL
    k = rng.randrange(7)
    if k == 0:
        return NIL
    if k == 1:
        exprs = tuple(gen_expr(rng, scope, 1) for _ in range(rng.randrange(3)))
        return Out(exprs, gen_pred(rng, scope), gen_proc(rng, scope, depth - 1))
    if k == 2:
        n = rng.randrange(1, 3)
        vars_ = tuple(rng.sample(VARS, n))
        inner = scope | set(vars_)
        return In(gen_pred(rng, inner), vars_, gen_proc(rng, inner, depth - 1))
    if k == 3:
        assigns = tuple(
            (rng.choice(ATTRS), gen_expr(rng, scope, 1))
            for _ in range(rng.randrange(1, 3))
        )
        return Upd(assigns, gen_proc(rng, scope, depth - 1))
    if k == 4:
        return Aware(gen_pred(rng, scope), gen_proc(rng, scope, depth - 1))
    if k == 5:
        return Sum(gen_proc(rng, scope, depth - 1), gen_proc(rng, scope, depth - 1))
    return Par(gen_proc(rng, scope, depth - 1), gen_proc(rng, scope, depth - 1))


def gen_env(rng: random.Random):
    n = rng.randrange(3)
    return AttributeEnv.of({rng.choice(ATTRS): gen_value(rng) for _ in range(n)})


def gen_system(rng: random.Random, depth: int = 2):
    if depth <= 0 or rng.random() < 0.4:
        return Comp(gen_env(rng), gen_proc(rng))
    k = rng.randrange(3)
    if k == 0:
        return SysPar(gen_system(rng, depth - 1), gen_system(rng, depth - 1))
    if k == 1:
        return Bang(gen_system(rng, depth - 1))
    return Nu(rng.choice(NUS), gen_system(rng, depth - 1))


RESERVED = ("_v0", "_v1", "_v2", "_v3", "_n0", "_n1", "_n2")


def rename_binders(node, rng: random.Random, scramble: bool = False, env=None):
    """Give every binder a random reserved name, both kinds mixed.

    Occurrences follow their binder's new name without any check for
    capture, so the result is alpha-equivalent to ``node`` unless an
    inner binder took the name an outer one still uses in its scope.
    With ``scramble`` the occurrences of an input's variables follow the
    new names in reverse order, which rebinds them whenever it matters.
    """
    env = env or {}
    if isinstance(node, Var):
        return Var(env.get(node.name, node.name))
    if isinstance(node, Name):
        return Name(env.get(node.atom, node.atom))
    if isinstance(node, In):
        new = tuple(rng.sample(RESERVED, len(node.vars)))
        targets = new[::-1] if scramble else new
        inner = {**env, **dict(zip(node.vars, targets))}
        return In(rename_binders(node.pred, rng, scramble, inner), new,
                  rename_binders(node.cont, rng, scramble, inner))
    if isinstance(node, Nu):
        new = rng.choice(RESERVED)
        inner = {**env, node.name: new}
        return Nu(new, rename_binders(node.inner, rng, scramble, inner))
    if is_dataclass(node):
        return type(node)(*(rename_binders(getattr(node, f.name), rng, scramble, env)
                            for f in fields(node)))
    if isinstance(node, tuple):
        return tuple(rename_binders(x, rng, scramble, env) for x in node)
    return node


def reserved_renaming(node, rng: random.Random) -> dict:
    """A renaming of some free names of ``node`` to reserved names, the
    ones ``rename_binders`` gives binders, so that they meet."""
    return {n: rng.choice(RESERVED) for n in sorted(free_names(node)) if rng.random() < 0.7}
