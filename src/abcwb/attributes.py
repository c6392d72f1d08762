"""Attribute environments, predicate satisfaction, restriction and equivalence.

Predicate equivalence quantifies over all environments; this module decides
it relative to a finite ``Universe`` (every value mentioned by the program,
plus one fresh witness name, plus an explicit "unbound" point per
attribute).  ``fingerprint`` is the one decision procedure: it keys a
predicate by its satisfaction table over that domain, so two predicates are
equivalent iff their keys are equal, and a predicate is unsatisfiable iff
its key is ``FF_KEY``.  For equality atoms over program values the decision
is exact: any distinguishing environment can be built from mentioned values
or the witness.  For ordering atoms it is the tool's documented semantics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .syntax import (
    UNDEFINED,
    And,
    Arith,
    Attr,
    AttributeEnv,
    Cmp,
    Definitions,
    Expression,
    FF,
    FF_,
    Int,
    Lit,
    Name,
    Not,
    Or,
    Predicate,
    Program,
    ThisAttr,
    TT,
    Value,
    Var,
    collect_attrs,
    collect_values,
    free_names,
    fresh_names,
    map_children,
    value_sort_key,
)


class UniverseTooLarge(Exception):
    """Raised when an environment enumeration exceeds the configured budget."""


class UndefinedClosure(Exception):
    """Raised when closing a predicate needs an unbound attribute."""


def eval_expr(e: Expression, env: AttributeEnv):
    """Evaluate a variable-free, ``rand``-free expression under an environment.

    Returns a ``Value`` or ``UNDEFINED``.  Both plain and ``this.``
    attribute references read the local environment.  Arithmetic on
    anything but integers is undefined, as is an unbound attribute.
    """
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, (Attr, ThisAttr)):
        return env.get(e.attr)
    if isinstance(e, Var):
        return UNDEFINED  # unsubstituted variable: not evaluable
    if isinstance(e, Arith):
        lhs = eval_expr(e.lhs, env)
        rhs = eval_expr(e.rhs, env)
        if not (isinstance(lhs, Int) and isinstance(rhs, Int)):
            return UNDEFINED
        if e.op == "+":
            return Int(lhs.n + rhs.n)
        if e.op == "-":
            return Int(lhs.n - rhs.n)
        if e.op == "*":
            return Int(lhs.n * rhs.n)
        raise ValueError(f"unknown arithmetic operator {e.op!r}")
    raise TypeError(e)


def _cmp(op: str, lhs, rhs) -> bool:
    if lhs is UNDEFINED or rhs is UNDEFINED:
        return False
    if op == "=":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    # ordering is only defined on integers; anything else is plain false
    if not (isinstance(lhs, Int) and isinstance(rhs, Int)):
        return False
    if op == "<":
        return lhs.n < rhs.n
    if op == "<=":
        return lhs.n <= rhs.n
    if op == ">":
        return lhs.n > rhs.n
    if op == ">=":
        return lhs.n >= rhs.n
    raise ValueError(f"unknown comparison {op!r}")


def satisfies(env: AttributeEnv, pi: Predicate) -> bool:
    """Decide whether an environment satisfies a variable-free predicate."""
    if isinstance(pi, TT):
        return True
    if isinstance(pi, FF):
        return False
    if isinstance(pi, Cmp):
        return _cmp(pi.op, eval_expr(pi.lhs, env), eval_expr(pi.rhs, env))
    if isinstance(pi, And):
        return satisfies(env, pi.lhs) and satisfies(env, pi.rhs)
    if isinstance(pi, Or):
        return satisfies(env, pi.lhs) or satisfies(env, pi.rhs)
    if isinstance(pi, Not):
        return not satisfies(env, pi.inner)
    raise TypeError(pi)


def close_predicate(pi: Predicate, env: AttributeEnv) -> Predicate:
    """Resolve every ``this.a`` reference against the sender's environment.

    Plain attribute references stay symbolic: they talk about the receiver.
    Raises ``UndefinedClosure`` on an unbound ``this`` reference, which
    makes the enclosing send not enabled.
    """
    if type(pi) is ThisAttr:
        v = env.get(pi.attr)
        if v is UNDEFINED:
            raise UndefinedClosure(pi.attr)
        return Lit(v)
    return map_children(pi, close_predicate, env)


def restrict_predicate(pi: Predicate, x: str) -> Predicate:
    """Falsify every atom that mentions the restricted name ``x``.

    Conjunction and disjunction distribute, negation commutes.  The atom
    rule is generalized from equality to every comparison operator.
    """
    if type(pi) is Cmp:
        return FF_ if x in free_names(pi) else pi
    return map_children(pi, restrict_predicate, x)


# ---------------------------------------------------------------------------
# Finite universe and the semantic key of a predicate


DEFAULT_BUDGET = 10**6
# messages a stimulus pool holds, and outcomes one component's walk lists
DEFAULT_MESSAGE_BUDGET = 2000

# the keys of every unsatisfiable and of every valid predicate
FF_KEY = ((), (False,))
TT_KEY = ((), (True,))


@dataclass(frozen=True)
class Universe:
    """Finite decision domain for predicate equivalence.

    ``values`` must cover every literal and attribute value of the program
    under analysis; ``witness`` is one name that does not occur in it.
    ``memo`` maps predicates to their fingerprints over this universe.  It
    lives and dies with the universe: fresh names minted during one
    analysis give predicates no later analysis asks about.
    """

    values: frozenset[Value]
    witness: Name
    budget: int = DEFAULT_BUDGET
    memo: dict = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )

    @staticmethod
    def for_program(program: Program) -> "Universe":
        """The universe of a program's system and definition bodies."""
        return Universe.for_systems([program.main], program.defs)

    @staticmethod
    def for_systems(systems, defs: Definitions = None) -> "Universe":
        """The universe of the values that some terms, and the bodies of
        the definitions they may call, mention."""
        values: set[Value] = set()
        for term in [*systems, *(body for _, body in (defs or {}).values())]:
            values |= collect_values(term)
        used = {v.atom for v in values if isinstance(v, Name)}
        return Universe(frozenset(values), Name(next(fresh_names(used, "w"))))


def is_ff(p: Predicate, u: Universe) -> bool:
    """Whether no environment over ``u`` satisfies ``p``."""
    return fingerprint(p, u) == FF_KEY


def fingerprint(pi: Predicate, u: Universe) -> tuple:
    """Canonical semantic key: equal fingerprints iff equivalent over ``u``.

    The key is the satisfaction table of ``pi`` over the attributes it
    depends on, each ranging over "unbound", the universe values, the
    names ``pi`` mentions and the witness.  Attributes it mentions but
    does not depend on are projected away, so predicates that mention
    different irrelevant attributes still compare equal.
    """
    out = u.memo.get(pi)
    if out is None:
        out = u.memo[pi] = _fingerprint(pi, u)
    return out


def _fingerprint(pi: Predicate, u: Universe) -> tuple:
    attrs = tuple(sorted(collect_attrs(pi)))
    names = {Name(n) for n in free_names(pi)}
    domain = [UNDEFINED, *sorted(u.values | names, key=value_sort_key), u.witness]
    total = len(domain) ** len(attrs)
    if total > u.budget:
        raise UniverseTooLarge(f"{total} environments exceed budget {u.budget}")

    # attrs is sorted, so the bindings are too; index 0 leaves one unbound
    table = {
        c: satisfies(AttributeEnv(tuple((a, domain[i]) for a, i in zip(attrs, c) if i)), pi)
        for c in itertools.product(range(len(domain)), repeat=len(attrs))
    }
    # an attribute is relevant if changing it alone changes the answer
    relevant = [
        k for k in range(len(attrs))
        if any(
            table[c[:k] + (j,) + c[k + 1:]] != res
            for c, res in table.items() if c[k] == 0
            for j in range(1, len(domain))
        )
    ]
    bits = []
    for combo in itertools.product(range(len(domain)), repeat=len(relevant)):
        full = [0] * len(attrs)
        for k, j in zip(relevant, combo):
            full[k] = j
        bits.append(table[tuple(full)])
    return (tuple(attrs[k] for k in relevant), tuple(bits))
