"""Attribute environments, predicate satisfaction, restriction and equivalence.

Predicate equivalence quantifies over all environments; this module decides
it relative to a finite ``Universe`` (every value mentioned by the program,
plus one fresh witness name, plus an explicit "unbound" point per
attribute).  For equality atoms over program values the decision is exact:
any distinguishing environment can be built from mentioned values or the
witness.  For ordering atoms it is the tool's documented semantics.
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
    Rand,
    ThisAttr,
    TT,
    Value,
    Var,
    collect_attrs,
    collect_values,
    free_names,
    map_children,
    value_sort_key,
)


class UniverseTooLarge(Exception):
    """Raised when an environment enumeration exceeds the configured budget."""


class UndefinedClosure(Exception):
    """Raised when closing a predicate needs an unbound attribute."""


def eval_expr(e: Expression, env: AttributeEnv, rng=None):
    """Evaluate a variable-free expression under an environment.

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
        lhs = eval_expr(e.lhs, env, rng)
        rhs = eval_expr(e.rhs, env, rng)
        if not (isinstance(lhs, Int) and isinstance(rhs, Int)):
            return UNDEFINED
        if e.op == "+":
            return Int(lhs.n + rhs.n)
        if e.op == "-":
            return Int(lhs.n - rhs.n)
        if e.op == "*":
            return Int(lhs.n * rhs.n)
        raise ValueError(f"unknown arithmetic operator {e.op!r}")
    if isinstance(e, Rand):
        if rng is None:
            return UNDEFINED
        return Int(rng.randrange(e.bound))
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
# Finite universe and semantic predicate equivalence


DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class Universe:
    """Finite decision domain for predicate equivalence.

    ``values`` must cover every literal and attribute value of the program
    under analysis; ``witness`` is one name that does not occur in it.
    ``memo`` holds the answers of ``is_ff`` and ``fingerprint`` over this
    universe.  It lives and dies with the universe: fresh names minted
    during one analysis give predicates no later analysis asks about.
    """

    values: frozenset[Value]
    witness: Name
    attrs: frozenset[str]
    budget: int = DEFAULT_BUDGET
    memo: dict = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )

    @staticmethod
    def for_program(program: Program, extra_values=(), budget: int = DEFAULT_BUDGET) -> "Universe":
        """The universe of a program's system and definition bodies, and
        of the attributes it declares."""
        bodies = [body for _, (_, body) in sorted(program.defs.items())]
        u = Universe.for_systems([program.main, *bodies], extra_values, budget)
        return Universe(u.values, u.witness, u.attrs | program.attrs, budget)

    @staticmethod
    def for_systems(systems, extra_values=(), budget: int = DEFAULT_BUDGET) -> "Universe":
        """The universe of the values and attributes some terms mention."""
        values: set[Value] = set(extra_values)
        attrs: set[str] = set()
        for s in systems:
            values |= collect_values(s)
            attrs |= collect_attrs(s)
        used = {v.atom for v in values if isinstance(v, Name)}
        k = 0
        while f"_w{k}" in used:
            k += 1
        return Universe(frozenset(values), Name(f"_w{k}"), frozenset(attrs), budget)


def _domain(u: Universe, preds) -> list:
    """Candidate attribute values: unbound, universe values, extra mentioned
    names, and the witness, in a deterministic order."""
    vals = set(u.values)
    for p in preds:
        vals |= {Name(n) for n in free_names(p)}
    ordered = sorted(vals, key=value_sort_key)
    return [UNDEFINED] + ordered + [u.witness]


def _mentioned_attrs(preds) -> tuple[str, ...]:
    out: set[str] = set()
    for p in preds:
        out |= collect_attrs(p)
    return tuple(sorted(out))


def _enumerate_envs(attrs: tuple[str, ...], domain: list, budget: int):
    total = len(domain) ** len(attrs)
    if total > budget:
        raise UniverseTooLarge(f"{total} environments exceed budget {budget}")
    for combo in itertools.product(domain, repeat=len(attrs)):
        yield AttributeEnv(
            tuple(sorted((a, v) for a, v in zip(attrs, combo) if v is not UNDEFINED))
        )


def semantically_equiv(p1: Predicate, p2: Predicate, u: Universe) -> bool:
    """Same satisfaction on every universe environment over mentioned attrs."""
    attrs = _mentioned_attrs((p1, p2))
    domain = _domain(u, (p1, p2))
    for env in _enumerate_envs(attrs, domain, u.budget):
        if satisfies(env, p1) != satisfies(env, p2):
            return False
    return True


def is_ff(p: Predicate, u: Universe) -> bool:
    key = ("is_ff", p)
    out = u.memo.get(key)
    if out is None:
        attrs = _mentioned_attrs((p,))
        domain = _domain(u, (p,))
        envs = _enumerate_envs(attrs, domain, u.budget)
        out = u.memo[key] = not any(satisfies(env, p) for env in envs)
    return out


def is_tt(p: Predicate, u: Universe) -> bool:
    attrs = _mentioned_attrs((p,))
    domain = _domain(u, (p,))
    return all(satisfies(env, p) for env in _enumerate_envs(attrs, domain, u.budget))


def fingerprint(pi: Predicate, u: Universe) -> tuple:
    """Canonical semantic key: equal fingerprints iff equivalent over ``u``.

    The satisfaction table over the predicate's mentioned attributes is
    projected down to the attributes it actually depends on, so predicates
    mentioning different (irrelevant) attributes still compare equal.
    Emitted transition labels only mention universe values, which keeps
    fingerprints comparable across predicates.
    """
    key = ("fingerprint", pi)
    out = u.memo.get(key)
    if out is None:
        out = u.memo[key] = _fingerprint(pi, u)
    return out


def _fingerprint(pi: Predicate, u: Universe) -> tuple:
    attrs = _mentioned_attrs((pi,))
    domain = _domain(u, ())
    for n in free_names(pi):
        if Name(n) not in u.values and Name(n) != u.witness:
            # out-of-universe name: extend the domain just for this key;
            # such predicates only arise transiently, never on labels
            domain = _domain(u, (pi,))
            break
    total = len(domain) ** len(attrs)
    if total > u.budget:
        raise UniverseTooLarge(f"{total} environments exceed budget {u.budget}")

    table: dict[tuple, bool] = {}
    for combo in itertools.product(range(len(domain)), repeat=len(attrs)):
        env = AttributeEnv(
            tuple(
                sorted(
                    (a, domain[i]) for a, i in zip(attrs, combo) if domain[i] is not UNDEFINED
                )
            )
        )
        table[combo] = satisfies(env, pi)

    # drop attributes the table does not depend on
    relevant = []
    for idx, a in enumerate(attrs):
        depends = False
        for combo, res in table.items():
            if combo[idx] != 0:
                continue
            for j in range(1, len(domain)):
                alt = combo[:idx] + (j,) + combo[idx + 1 :]
                if table[alt] != res:
                    depends = True
                    break
            if depends:
                break
        if depends:
            relevant.append(idx)

    rel_attrs = tuple(attrs[i] for i in relevant)
    bits = []
    for combo in itertools.product(range(len(domain)), repeat=len(relevant)):
        full = [0] * len(attrs)
        for i, j in zip(relevant, combo):
            full[i] = j
        bits.append(table[tuple(full)])
    return (rel_attrs, tuple(bits))


def fingerprint_ff(u: Universe) -> tuple:
    return ((), (False,))


def fingerprint_tt(u: Universe) -> tuple:
    return ((), (True,))
