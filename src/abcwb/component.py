"""Single-component transition steps: sends, receives and discards.

A component is an attribute environment paired with a process.  Sends
evaluate the message under the local environment and close every
``this.`` reference in the carried predicate; ``output_steps`` lists them
as ``(predicate, values, env, process)`` tuples.  ``deliver`` lists every
way a component receives an incoming message as ``(env, process)`` pairs;
an empty list means it discards the message, so receiving and discarding
are mutually exclusive and total.

Attribute updates guard their action: the assignments are evaluated
under the environment in force when the update is reached, and commit
in the same step as the guarded send or receive.  A discard leaves the
component, including any pending updates, untouched.
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


def unfold_call(call: Call, env: AttributeEnv, defs: Definitions, rng=None):
    """Instantiate a definition body; ``None`` if an argument is undefined."""
    params, body = defs[call.name]
    values = []
    for e in call.args:
        v = eval_expr(e, env, rng)
        if v is UNDEFINED:
            return None
        values.append(v)
    return substitute(body, dict(zip(params, values)))


def output_steps(
    env: AttributeEnv, proc: Process, defs: Definitions, rng=None
) -> list[tuple[Predicate, tuple[Value, ...], AttributeEnv, Process]]:
    """All send transitions of a component, with their resulting state.

    The payload expressions are evaluated under the local environment;
    a send whose payload or closed predicate needs an unbound attribute
    is simply not enabled.
    """
    if isinstance(proc, (Nil, In)):
        return []
    if isinstance(proc, Out):
        values = []
        for e in proc.exprs:
            v = eval_expr(e, env, rng)
            if v is UNDEFINED:
                return []
            values.append(v)
        try:
            pred = close_predicate(proc.pred, env)
        except UndefinedClosure:
            return []
        return [(pred, tuple(values), env, proc.cont)]
    if isinstance(proc, Upd):
        committed = _commit(env, proc.assigns, rng)
        if committed is None:
            return []
        return output_steps(committed, proc.cont, defs, rng)
    if isinstance(proc, Aware):
        if satisfies(env, proc.pred):
            return output_steps(env, proc.cont, defs, rng)
        return []
    if isinstance(proc, Sum):
        return output_steps(env, proc.left, defs, rng) + output_steps(
            env, proc.right, defs, rng
        )
    if isinstance(proc, Par):
        out = []
        for pred, vals, env2, cont in output_steps(env, proc.left, defs, rng):
            out.append((pred, vals, env2, Par(cont, proc.right)))
        for pred, vals, env2, cont in output_steps(env, proc.right, defs, rng):
            out.append((pred, vals, env2, Par(proc.left, cont)))
        return out
    if isinstance(proc, Call):
        body = unfold_call(proc, env, defs, rng)
        if body is None:
            return []
        return output_steps(env, body, defs, rng)
    raise TypeError(proc)


def _commit(env: AttributeEnv, assigns, rng):
    """Evaluate assignments under ``env``; ``None`` if any is undefined."""
    out = []
    for a, e in assigns:
        v = eval_expr(e, env, rng)
        if v is UNDEFINED:
            return None
        out.append((a, v))
    return env.updated(out)


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
    if isinstance(proc, (Nil, Out)):
        return []
    if isinstance(proc, In):
        if len(proc.vars) != len(values):
            return []
        theta = dict(zip(proc.vars, values))
        own = substitute(proc.pred, theta)
        if satisfies(env, own) and satisfies(env, sender_pred):
            return [(env, substitute(proc.cont, theta))]
        return []
    if isinstance(proc, Upd):
        # on a discard no outcome carries the committed environment
        committed = _commit(env, proc.assigns, rng)
        if committed is None:
            return []
        return deliver(committed, proc.cont, sender_pred, values, defs, rng)
    if isinstance(proc, Aware):
        if satisfies(env, proc.pred):
            return deliver(env, proc.cont, sender_pred, values, defs, rng)
        return []
    if isinstance(proc, Sum):
        return deliver(env, proc.left, sender_pred, values, defs, rng) + deliver(
            env, proc.right, sender_pred, values, defs, rng
        )
    if isinstance(proc, Par):
        out = []
        for env2, cont in deliver(env, proc.left, sender_pred, values, defs, rng):
            out.append((env2, Par(cont, proc.right)))
        for env2, cont in deliver(env, proc.right, sender_pred, values, defs, rng):
            out.append((env2, Par(proc.left, cont)))
        return out
    if isinstance(proc, Call):
        body = unfold_call(proc, env, defs, rng)
        if body is None:
            return []
        return deliver(env, body, sender_pred, values, defs, rng)
    raise TypeError(proc)
