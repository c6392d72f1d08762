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
component, including any pending updates, untouched.  Expressions are
evaluated where the walk reaches them, so ``rand`` draws follow the
walk's order.
"""

from __future__ import annotations

from .attributes import (
    UndefinedClosure,
    close_predicate,
    eval_expr,
    satisfies,
)
from .syntax import (
    UNDEFINED,
    AttributeEnv,
    Aware,
    Call,
    Definitions,
    In,
    Nil,
    Out,
    Par,
    Predicate,
    Process,
    Sum,
    Upd,
    Value,
    substitute,
)


def _evaluate(keyed, env: AttributeEnv, rng):
    """``(key, value)`` pairs for ``(key, expression)`` pairs under ``env``;
    ``None`` if any value is undefined."""
    out = []
    for k, e in keyed:
        v = eval_expr(e, env, rng)
        if v is UNDEFINED:
            return None
        out.append((k, v))
    return out


def unfold_call(call: Call, env: AttributeEnv, defs: Definitions, rng=None):
    """Instantiate a definition body; ``None`` if an argument is undefined."""
    params, body = defs[call.name]
    bound = _evaluate(zip(params, call.args), env, rng)
    if bound is None:
        return None
    return substitute(body, dict(bound))


def output_steps(
    env: AttributeEnv, proc: Process, defs: Definitions, rng=None
) -> list[tuple[Predicate, tuple[Value, ...], AttributeEnv, Process]]:
    """All send transitions of a component, with their resulting state.

    The payload expressions are evaluated under the local environment;
    a send whose payload or closed predicate needs an unbound attribute
    is simply not enabled.
    """
    return _fire(env, proc, defs, rng, None)


def deliver(
    env: AttributeEnv,
    proc: Process,
    sender_pred: Predicate,
    values: tuple[Value, ...],
    defs: Definitions,
    rng=None,
) -> list[tuple[AttributeEnv, Process]]:
    """Offer one message to a component: every way it receives it, as
    ``(env, process)`` pairs; none means it discards the message.

    A receive needs both checks to pass: the receiver's own predicate
    under the instantiated message, and the sender's predicate against
    the receiver's environment.  Parallel threads inside one component
    compete: exactly one of them consumes the message per outcome.
    """
    return _fire(env, proc, defs, rng, (sender_pred, values))


def _fire(env: AttributeEnv, proc: Process, defs: Definitions, rng, msg) -> list:
    """Every way ``proc`` acts under ``env``: its sends when ``msg`` is
    None, else its receives of ``msg = (sender_pred, values)``.  The last
    item of each outcome is the continuation."""
    # process classes have no subclasses, so the exact type decides; the
    # kinds most often offered a message come first
    kind = type(proc)
    if kind is Out:
        if msg is not None:
            return []
        payload = _evaluate(enumerate(proc.exprs), env, rng)
        if payload is None:
            return []
        try:
            pred = close_predicate(proc.pred, env)
        except UndefinedClosure:
            return []
        return [(pred, tuple(v for _, v in payload), env, proc.cont)]
    if kind is Nil:
        return []
    if kind is Upd:
        # on a discard no outcome carries the committed environment
        assigned = _evaluate(proc.assigns, env, rng)
        if assigned is None:
            return []
        return _fire(env.updated(assigned), proc.cont, defs, rng, msg)
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
        return _fire(env, proc.left, defs, rng, msg) + _fire(
            env, proc.right, defs, rng, msg
        )
    if kind is Par:
        left, right = proc.left, proc.right
        return [
            o[:-1] + (Par(o[-1], right),) for o in _fire(env, left, defs, rng, msg)
        ] + [o[:-1] + (Par(left, o[-1]),) for o in _fire(env, right, defs, rng, msg)]
    if kind is Aware:
        if satisfies(env, proc.pred):
            return _fire(env, proc.cont, defs, rng, msg)
        return []
    if kind is Call:
        body = unfold_call(proc, env, defs, rng)
        if body is None:
            return []
        return _fire(env, body, defs, rng, msg)
    raise TypeError(proc)
