"""Nameless (de Bruijn) form of systems, the oracle for alpha-equivalence.

Two systems are alpha-equivalent exactly when their nameless forms are
equal.  Every occurrence of a name (a ``Var`` or the atom of a ``Name``
value; both live in one namespace) becomes either ``("free", name)`` or
``("bound", up, pos)``: the binder ``up`` scopes out, and the position of
the name in that binder's list.  An input prefix that lists one variable
twice binds the last of them, as substitution does.  Binder names
themselves are dropped.

This deliberately shares no code with ``abcwb.syntax``: it is what the
canonicaliser is checked against.
"""

from __future__ import annotations

from abcwb.syntax import (
    And,
    Arith,
    Attr,
    AttributeEnv,
    Aware,
    Bang,
    Bool,
    Call,
    Cmp,
    Comp,
    FF,
    In,
    Int,
    Lit,
    Name,
    Nil,
    Not,
    Nu,
    Or,
    Out,
    Par,
    Rand,
    Sum,
    SysPar,
    ThisAttr,
    TT,
    TupleV,
    Upd,
    Var,
)


def _ref(name: str, scopes: tuple) -> tuple:
    for up, group in enumerate(reversed(scopes)):
        if name in group:
            return ("bound", up, len(group) - 1 - group[::-1].index(name))
    return ("free", name)


def _value(v, scopes) -> tuple:
    if isinstance(v, Name):
        return ("name", _ref(v.atom, scopes))
    if isinstance(v, Int):
        return ("int", v.n)
    if isinstance(v, Bool):
        return ("bool", v.b)
    if isinstance(v, TupleV):
        return ("tuple", tuple(_value(i, scopes) for i in v.items))
    raise TypeError(v)


def _expr(e, scopes) -> tuple:
    if isinstance(e, Lit):
        return ("lit", _value(e.value, scopes))
    if isinstance(e, Var):
        return ("var", _ref(e.name, scopes))
    if isinstance(e, Attr):
        return ("attr", e.attr)
    if isinstance(e, ThisAttr):
        return ("this", e.attr)
    if isinstance(e, Arith):
        return ("arith", e.op, _expr(e.lhs, scopes), _expr(e.rhs, scopes))
    if isinstance(e, Rand):
        return ("rand", e.bound)
    raise TypeError(e)


def _pred(p, scopes) -> tuple:
    if isinstance(p, TT):
        return ("tt",)
    if isinstance(p, FF):
        return ("ff",)
    if isinstance(p, Cmp):
        return ("cmp", p.op, _expr(p.lhs, scopes), _expr(p.rhs, scopes))
    if isinstance(p, (And, Or)):
        return (type(p).__name__, _pred(p.lhs, scopes), _pred(p.rhs, scopes))
    if isinstance(p, Not):
        return ("not", _pred(p.inner, scopes))
    raise TypeError(p)


def _proc(p, scopes) -> tuple:
    if isinstance(p, Nil):
        return ("nil",)
    if isinstance(p, Out):
        exprs = tuple(_expr(e, scopes) for e in p.exprs)
        return ("out", exprs, _pred(p.pred, scopes), _proc(p.cont, scopes))
    if isinstance(p, In):
        inner = scopes + (p.vars,)
        return ("in", len(p.vars), _pred(p.pred, inner), _proc(p.cont, inner))
    if isinstance(p, Upd):
        assigns = tuple((a, _expr(e, scopes)) for a, e in p.assigns)
        return ("upd", assigns, _proc(p.cont, scopes))
    if isinstance(p, Aware):
        return ("aware", _pred(p.pred, scopes), _proc(p.cont, scopes))
    if isinstance(p, (Sum, Par)):
        return (type(p).__name__, _proc(p.left, scopes), _proc(p.right, scopes))
    if isinstance(p, Call):
        return ("call", p.name, tuple(_expr(e, scopes) for e in p.args))
    raise TypeError(p)


def _env(env: AttributeEnv, scopes) -> tuple:
    return tuple((a, _value(v, scopes)) for a, v in env.bindings)


def debruijn(s, scopes: tuple = ()) -> tuple:
    """Nameless form of a system."""
    if isinstance(s, Comp):
        return ("comp", _env(s.env, scopes), _proc(s.proc, scopes))
    if isinstance(s, SysPar):
        return ("syspar", debruijn(s.left, scopes), debruijn(s.right, scopes))
    if isinstance(s, Bang):
        return ("bang", s.fuel, debruijn(s.inner, scopes))
    if isinstance(s, Nu):
        return ("nu", debruijn(s.inner, scopes + ((s.name,),)))
    raise TypeError(s)
