"""Single-component transition steps: sends, receives and discards.

A component is an attribute environment paired with a process.  One
walk, ``prefixes``, applies the rules for updates, awareness, choice,
interleaving and calls, and lists every send or input prefix it
reaches, each with the environment in force there and the ``Par``
context around it.  Sends and receives both read that one list, so a
caller that keeps it walks a component once however many messages it
offers.  ``output_steps`` evaluates the send prefixes:
the message under the local environment, with every ``this.`` reference
in the carried predicate closed, as ``(predicate, values, env,
process)`` tuples.  ``deliver`` tests the input prefixes against one
incoming message and lists every way the component receives it as
``(env, process)`` pairs; an empty list means it discards the message,
so receiving and discarding are mutually exclusive and total.

Attribute updates guard their action: the assignments are evaluated
under the environment in force when the update is reached, and commit
in the same step as the guarded send or receive.  A discard leaves the
component, including any pending updates, untouched.  ``rand(n)`` is an
n-way choice, so a component's steps depend only on the component and
the definitions.  An update, payload or call with more than
``DEFAULT_MESSAGE_BUDGET`` choices or prefixes, or a component with
more sends than that, raises ``UniverseTooLarge``.
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
    pre: list,
) -> list[tuple[Predicate, tuple[Value, ...], AttributeEnv, Process]]:
    """All send transitions of a component with ``prefixes`` list
    ``pre``, with their resulting state.

    The payload expressions are evaluated under the local environment;
    a send whose payload or closed predicate needs an unbound attribute
    is simply not enabled.
    """
    out = []
    for env2, p, ctx in pre:
        if type(p) is not Out:
            continue
        try:
            pred = close_predicate(p.pred, env2)
        except UndefinedClosure:
            continue
        cont = _plug(p.cont, ctx)
        out += [
            (pred, tuple(v for _, v in payload), env2, cont)
            for payload in _evaluate(enumerate(p.exprs), env2)
        ]
        _bound(len(out))
    return out


def deliver(
    pre: list, sender_pred: Predicate, values: tuple[Value, ...]
) -> list[tuple[AttributeEnv, Process]]:
    """Offer one message to a component with ``prefixes`` list ``pre``:
    every way it receives it, as ``(env, process)`` pairs; none means it
    discards the message.

    A receive needs both checks to pass: the receiver's own predicate
    under the instantiated message, and the sender's predicate against
    the receiver's environment.  Parallel threads inside one component
    compete: exactly one of them consumes the message per outcome.
    """
    out = []
    for env2, p, ctx in pre:
        theta = _receive(env2, p, sender_pred, values)
        if theta is not None:
            out.append((env2, _plug(substitute(p.cont, theta), ctx)))
    return out


def hears(pre: list, sender_pred: Predicate, values: tuple[Value, ...]) -> bool:
    """Whether a component with ``prefixes`` list ``pre`` receives the
    message, without building what it becomes."""
    return any(_receive(env, p, sender_pred, values) is not None for env, p, _ in pre)


def _receive(env: AttributeEnv, p: Process, sender_pred: Predicate, values):
    """The binding under which prefix ``p`` receives the message in
    ``env``, or None: it is a send, or a check fails."""
    if type(p) is not In or len(p.vars) != len(values):
        return None
    theta = dict(zip(p.vars, values))
    if satisfies(env, substitute(p.pred, theta)) and satisfies(env, sender_pred):
        return theta
    return None


def _plug(cont: Process, ctx: tuple) -> Process:
    """Put ``cont`` back in the ``Par`` context ``prefixes`` recorded."""
    for sibling, hole_on_left in ctx:
        cont = Par(cont, sibling) if hole_on_left else Par(sibling, cont)
    return cont


def prefixes(
    env: AttributeEnv, proc: Process, defs: Definitions
) -> list[tuple[AttributeEnv, Process, tuple]]:
    """Every send or input prefix a component can fire, in walk order:
    the one place the rules for updates, awareness, choice, interleaving
    and calls are applied.

    Each is ``(env, prefix, context)``: the environment after the
    updates and calls on the way to the ``Out`` or ``In`` node, the node
    itself, and the ``Par`` siblings around it, innermost first, each as
    ``(sibling, hole_on_left)``; ``_plug`` rebuilds the component around
    the prefix's continuation from them.
    """
    # process classes have no subclasses, so the exact type decides
    kind = type(proc)
    if kind is Out or kind is In:
        return [(env, proc, ())]
    if kind is Nil:
        return []
    if kind is Sum:
        return prefixes(env, proc.left, defs) + prefixes(env, proc.right, defs)
    if kind is Par:
        left, right = proc.left, proc.right
        return [
            (e, p, ctx + ((right, True),)) for e, p, ctx in prefixes(env, left, defs)
        ] + [(e, p, ctx + ((left, False),)) for e, p, ctx in prefixes(env, right, defs)]
    if kind is Aware:
        if satisfies(env, proc.pred):
            return prefixes(env, proc.cont, defs)
        return []
    if kind is Upd:
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
        out += prefixes(env2, cont, defs)
        _bound(len(out))
    return out
