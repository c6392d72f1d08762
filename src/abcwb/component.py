"""Single-component transition steps: sends, receives and discards.

A component is an attribute environment paired with a process.  One
walk, ``_fire``, applies the rules for updates, awareness, choice,
interleaving and calls, whichever action fires at the end: a send, or a
receive of one offered message.  Sends evaluate the message under the
local environment and close every ``this.`` reference in the carried
predicate; ``output_steps`` lists them as ``(predicate, values, env,
process)`` tuples.  ``deliver`` lists every way a component receives an
incoming message as ``(env, process)`` pairs; an empty list means it
discards the message, so receiving and discarding are mutually exclusive
and total.

Attribute updates guard their action: the assignments are evaluated
under the environment in force when the update is reached, and commit
in the same step as the guarded send or receive.  A discard leaves the
component, including any pending updates, untouched.  ``rand(n)`` is an
n-way choice, so a component's steps depend only on the component and
the definitions.  An update, payload or call with more than
``DEFAULT_MESSAGE_BUDGET`` choices or outcomes raises ``UniverseTooLarge``.
"""

from __future__ import annotations

from .attributes import (
    DEFAULT_MESSAGE_BUDGET,
    UndefinedClosure,
    UniverseTooLarge,
    close_predicate,
    eval_expr,
    satisfies,
)
from .syntax import (
    UNDEFINED,
    Arith,
    AttributeEnv,
    Aware,
    Call,
    Definitions,
    In,
    Int,
    Lit,
    Nil,
    Out,
    Par,
    Predicate,
    Process,
    Rand,
    Sum,
    Upd,
    Value,
    substitute,
)


def _bound(count: int) -> None:
    """Refuse to list more than ``DEFAULT_MESSAGE_BUDGET`` alternatives."""
    if count > DEFAULT_MESSAGE_BUDGET:
        raise UniverseTooLarge(f"one component step has over {DEFAULT_MESSAGE_BUDGET} choices")


def _values(e, env: AttributeEnv) -> list:
    """Every value ``e`` takes under ``env``, one per choice of the
    ``rand`` it mentions, without repeats; none if it is undefined."""
    kind = type(e)
    if kind is Rand:
        _bound(e.bound)
        return [Int(k) for k in range(e.bound)]
    if kind is Arith:
        lhs, rhs = _values(e.lhs, env), _values(e.rhs, env)
        _bound(len(lhs) * len(rhs))
        out = dict.fromkeys(
            eval_expr(Arith(e.op, Lit(a), Lit(b)), env) for a in lhs for b in rhs
        )
        out.pop(UNDEFINED, None)
        return list(out)
    v = eval_expr(e, env)
    return [] if v is UNDEFINED else [v]


def _evaluate(keyed, env: AttributeEnv) -> list:
    """Every binding of ``(key, expression)`` pairs under ``env``, as a
    tuple of ``(key, value)`` pairs: one per choice of the ``rand`` they
    mention, none if a value is undefined."""
    out = [()]
    for k, e in keyed:
        values = _values(e, env)
        _bound(len(out) * len(values))
        out = [b + ((k, v),) for b in out for v in values]
    return out


def output_steps(
    env: AttributeEnv, proc: Process, defs: Definitions
) -> list[tuple[Predicate, tuple[Value, ...], AttributeEnv, Process]]:
    """All send transitions of a component, with their resulting state.

    The payload expressions are evaluated under the local environment;
    a send whose payload or closed predicate needs an unbound attribute
    is simply not enabled.
    """
    return _fire(env, proc, defs, None)


def deliver(
    env: AttributeEnv,
    proc: Process,
    sender_pred: Predicate,
    values: tuple[Value, ...],
    defs: Definitions,
) -> list[tuple[AttributeEnv, Process]]:
    """Offer one message to a component: every way it receives it, as
    ``(env, process)`` pairs; none means it discards the message.

    A receive needs both checks to pass: the receiver's own predicate
    under the instantiated message, and the sender's predicate against
    the receiver's environment.  Parallel threads inside one component
    compete: exactly one of them consumes the message per outcome.
    """
    return _fire(env, proc, defs, (sender_pred, values))


def _fire(env: AttributeEnv, proc: Process, defs: Definitions, msg) -> list:
    """Every way ``proc`` acts under ``env``: its sends when ``msg`` is
    None, else its receives of ``msg = (sender_pred, values)``.  The last
    item of each outcome is the continuation."""
    # process classes have no subclasses, so the exact type decides; the
    # kinds most often offered a message come first
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
        return _fire(env, proc.left, defs, msg) + _fire(env, proc.right, defs, msg)
    if kind is Par:
        left, right = proc.left, proc.right
        return [
            o[:-1] + (Par(o[-1], right),) for o in _fire(env, left, defs, msg)
        ] + [o[:-1] + (Par(left, o[-1]),) for o in _fire(env, right, defs, msg)]
    if kind is Aware:
        if satisfies(env, proc.pred):
            return _fire(env, proc.cont, defs, msg)
        return []
    if kind is Upd:
        # on a discard no outcome carries the committed environment
        steps = [(env.updated(a), proc.cont) for a in _evaluate(proc.assigns, env)]
    elif kind is Call:
        params, body = defs[proc.name]
        bindings = _evaluate(zip(params, proc.args), env)
        steps = [(env, substitute(body, dict(b))) for b in bindings]
    else:
        raise TypeError(proc)
    # an update or a call goes on once per choice of the ``rand`` it mentions
    out = []
    for env2, cont in steps:
        out += _fire(env2, cont, defs, msg)
        _bound(len(out))
    return out
