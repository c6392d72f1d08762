"""Enumerating oracle for predicate decisions over a ``Universe``.

``attributes.fingerprint`` decides every predicate question by one
projected satisfaction table.  This module answers the same questions the
plain way, by running ``satisfies`` over every environment of the
mentioned attributes, so tests can check the table against it.
"""

import itertools

from abcwb.attributes import UniverseTooLarge, satisfies
from abcwb.syntax import UNDEFINED, AttributeEnv, Name, collect_attrs, free_names, value_sort_key


def _envs(u, preds):
    """Every environment over the attributes ``preds`` mention, each
    ranging over unbound, the universe values, the names ``preds``
    mention and the witness."""
    attrs = sorted(set().union(*map(collect_attrs, preds)))
    vals = set(u.values).union(*({Name(n) for n in free_names(p)} for p in preds))
    domain = [UNDEFINED, *sorted(vals, key=value_sort_key), u.witness]
    total = len(domain) ** len(attrs)
    if total > u.budget:
        raise UniverseTooLarge(f"{total} environments exceed budget {u.budget}")
    for combo in itertools.product(domain, repeat=len(attrs)):
        yield AttributeEnv(tuple((a, v) for a, v in zip(attrs, combo) if v is not UNDEFINED))


def is_ff(p, u) -> bool:
    return not any(satisfies(env, p) for env in _envs(u, (p,)))


def is_tt(p, u) -> bool:
    return all(satisfies(env, p) for env in _envs(u, (p,)))


def semantically_equiv(p, q, u) -> bool:
    """Same satisfaction on every environment over the mentioned attributes."""
    return all(satisfies(env, p) == satisfies(env, q) for env in _envs(u, (p, q)))
