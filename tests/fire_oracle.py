"""The message-taking component walk, for differential tests.

Before the walk (now ``component.prefixes``) listed a component's
prefixes once, it took the message along: with none it gave the sends,
with one the ways of receiving it, rebuilding every ``Par`` around each
outcome.  The rules and the ``_bound`` checks are as they were.
"""

from __future__ import annotations

from abcwb.attributes import UndefinedClosure, close_predicate, satisfies
from abcwb.component import _bound, _evaluate
from abcwb.syntax import Aware, Call, In, Nil, Out, Par, Sum, Upd, substitute


def output_steps(env, proc, defs) -> list:
    return fire(env, proc, defs, None)


def deliver(env, proc, sender_pred, values, defs) -> list:
    return fire(env, proc, defs, (sender_pred, values))


def fire(env, proc, defs, msg) -> list:
    kind = type(proc)
    if kind is Out:
        if msg is not None:
            return []
        try:
            pred = close_predicate(proc.pred, env)
        except UndefinedClosure:
            return []
        return [
            (pred, tuple(v for _, v in payload), env, proc.cont)
            for payload in _evaluate(enumerate(proc.exprs), env)
        ]
    if kind is Nil:
        return []
    if kind is In:
        if msg is None:
            return []
        sender_pred, values = msg
        if len(proc.vars) != len(values):
            return []
        theta = dict(zip(proc.vars, values))
        own = substitute(proc.pred, theta)
        if satisfies(env, own) and satisfies(env, sender_pred):
            return [(env, substitute(proc.cont, theta))]
        return []
    if kind is Sum:
        return fire(env, proc.left, defs, msg) + fire(env, proc.right, defs, msg)
    if kind is Par:
        left, right = proc.left, proc.right
        return [
            o[:-1] + (Par(o[-1], right),) for o in fire(env, left, defs, msg)
        ] + [o[:-1] + (Par(left, o[-1]),) for o in fire(env, right, defs, msg)]
    if kind is Aware:
        if satisfies(env, proc.pred):
            return fire(env, proc.cont, defs, msg)
        return []
    if kind is Upd:
        steps = [(env.updated(a), proc.cont) for a in _evaluate(proc.assigns, env)]
    elif kind is Call:
        params, body = defs[proc.name]
        bindings = _evaluate(zip(params, proc.args), env)
        steps = [(env, substitute(body, dict(b))) for b in bindings]
    else:
        raise TypeError(proc)
    out = []
    for env2, cont in steps:
        out += fire(env2, cont, defs, msg)
        _bound(len(out))
    return out
