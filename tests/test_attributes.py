"""Evaluation, satisfaction, closure, restriction, and the finite
decision domain for predicate equivalence.

The restriction-invariance suite below randomizes over (predicate,
restricted name, environment, value) quadruples.  After restriction no
atom mentions the restricted name, so its denotation cannot influence
satisfaction; substituting any value for a fresh name, or a fresh name
for an occurring one, must leave the verdict unchanged.
"""

import random

import pytest

from abcwb.attributes import (
    FF_KEY,
    TT_KEY,
    UndefinedClosure,
    Universe,
    UniverseTooLarge,
    close_predicate,
    eval_expr,
    fingerprint,
    is_ff,
    restrict_predicate,
    satisfies,
)
from abcwb.syntax import (
    And,
    Arith,
    Attr,
    AttributeEnv,
    Bool,
    Cmp,
    FF_,
    Int,
    Lit,
    Name,
    Not,
    Or,
    ThisAttr,
    TT_,
    TupleV,
    UNDEFINED,
    free_names,
)

import pred_oracle
from astgen import ATTRS, NAMES, gen_env, gen_pred, gen_value
from pred_oracle import is_tt, semantically_equiv


def env(**kw):
    return AttributeEnv.of(kw)


# -- evaluation --------------------------------------------------------------


def test_arith_on_ints():
    e = Arith("+", Lit(Int(2)), Arith("*", Lit(Int(3)), Lit(Int(4))))
    assert eval_expr(e, env()) == Int(14)


def test_attr_lookup_and_undefined():
    assert eval_expr(Attr("a"), env(a=Int(1))) == Int(1)
    assert eval_expr(Attr("a"), env()) is UNDEFINED


def test_arith_on_non_ints_is_undefined():
    e = Arith("+", Lit(Name("m")), Lit(Int(1)))
    assert eval_expr(e, env()) is UNDEFINED


# -- satisfaction ------------------------------------------------------------


def test_satisfies_basic():
    g = env(role=Name("rescuer"), count=Int(3))
    assert satisfies(g, Cmp("=", Attr("role"), Lit(Name("rescuer"))))
    assert satisfies(g, Cmp(">", Attr("count"), Lit(Int(2))))
    assert not satisfies(g, Cmp("=", Attr("role"), Lit(Name("helper"))))


def test_undefined_attribute_never_satisfies_an_atom():
    assert not satisfies(env(), Cmp("=", Attr("a"), Attr("a")))


def test_ordering_only_on_ints():
    assert not satisfies(env(a=Name("m")), Cmp("<", Attr("a"), Lit(Name("z"))))


def test_connectives():
    g = env(a=Int(1))
    atom = Cmp("=", Attr("a"), Lit(Int(1)))
    assert satisfies(g, And(atom, TT_))
    assert satisfies(g, Or(FF_, atom))
    assert not satisfies(g, Not(atom))


# -- closure -----------------------------------------------------------------


def test_close_predicate_resolves_this():
    g = env(group=Name("a"))
    closed = close_predicate(Cmp("=", Attr("group"), ThisAttr("group")), g)
    assert closed == Cmp("=", Attr("group"), Lit(Name("a")))


def test_close_predicate_undefined_raises():
    with pytest.raises(UndefinedClosure):
        close_predicate(Cmp("=", Attr("a"), ThisAttr("missing")), env())


# -- restriction -------------------------------------------------------------


def test_restriction_falsifies_mentioning_atoms():
    pi = Cmp("=", Attr("id"), Lit(Name("x")))
    assert restrict_predicate(pi, "x") == FF_
    assert restrict_predicate(pi, "y") == pi


def test_restriction_is_structural():
    pi = Or(Cmp("=", Attr("a"), Lit(Name("x"))), Cmp("=", Attr("a"), Lit(Name("m"))))
    assert restrict_predicate(pi, "x") == Or(FF_, Cmp("=", Attr("a"), Lit(Name("m"))))


def test_restricted_predicate_mentions_no_restricted_name():
    rng = random.Random(3)
    for _ in range(500):
        pi = gen_pred(rng, frozenset())
        x = rng.choice(NAMES)
        assert x not in free_names(restrict_predicate(pi, x))


def _subst_in_value(v, x, w):
    if isinstance(v, Name) and v.atom == x:
        return w
    if isinstance(v, TupleV):
        return TupleV(tuple(_subst_in_value(e, x, w) for e in v.items))
    return v


def _subst_in_env(g, x, w):
    return AttributeEnv.of({a: _subst_in_value(v, x, w) for a, v in g.bindings})


def test_restriction_satisfaction_invariance_10k():
    # 10^4 quadruples (pi, x, gamma, v).  When x occurs inside gamma the
    # substituted value is a fresh name (an injective renaming of the
    # hidden name); when it does not, any value at all is fair game and
    # the substitution is vacuous.  Either way the restricted predicate
    # must not notice.
    rng = random.Random(77)
    failures = 0
    for _ in range(10_000):
        pi = gen_pred(rng, frozenset(), depth=3)
        x = rng.choice(NAMES + ("zz",))
        g = gen_env(rng)
        occurs = any(x in free_names(v) for _, v in g.bindings)
        v = Name("_fresh") if occurs else gen_value(rng)
        restricted = restrict_predicate(pi, x)
        before = satisfies(g, restricted)
        after = satisfies(_subst_in_env(g, x, v), restricted)
        if before != after:
            failures += 1
    assert failures == 0


from hypothesis import given, settings, strategies as st


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(NAMES))
@settings(max_examples=300, deadline=None)
def test_restriction_idempotent(seed, x):
    pi = gen_pred(random.Random(seed), frozenset(), depth=3)
    once = restrict_predicate(pi, x)
    assert restrict_predicate(once, x) == once


# -- finite universe ---------------------------------------------------------


def small_universe():
    return Universe(frozenset({Int(0), Int(1), Name("m"), Bool(True)}), Name("_w0"))


def test_is_ff_and_is_tt():
    u = small_universe()
    assert is_ff(FF_, u)
    assert is_tt(TT_, u)
    atom = Cmp("=", Attr("a"), Lit(Int(0)))
    assert is_ff(And(atom, Not(atom)), u)
    assert is_tt(Or(atom, Not(atom)), u)
    # at the unbound point neither a=0 nor a!=0 holds, so this one is
    # not a tautology
    assert not is_tt(Or(atom, Cmp("!=", Attr("a"), Lit(Int(0)))), u)


def test_tautology_with_undefined_point():
    # a = a is not a tautology: an unbound attribute satisfies no atom
    u = small_universe()
    assert not is_tt(Cmp("=", Attr("a"), Attr("a")), u)


def test_equiv_ignores_irrelevant_attributes():
    u = small_universe()
    p = Cmp("=", Attr("a"), Lit(Int(0)))
    batom = Cmp("=", Attr("b"), Lit(Int(1)))
    # padding with a tautology over another attribute is invisible
    assert semantically_equiv(p, And(p, Or(batom, Not(batom))), u)
    assert semantically_equiv(p, And(p, TT_), u)
    # b=1 or b!=1 fails when b is unbound, so this padding is real
    assert not semantically_equiv(
        p, And(p, Or(batom, Cmp("!=", Attr("b"), Lit(Int(1))))), u
    )


def test_fingerprint_matches_equivalence():
    u = small_universe()
    rng = random.Random(21)
    preds = [gen_pred(rng, frozenset()) for _ in range(40)]
    # restrict to universe-only names so fingerprints are comparable
    preds = [p for p in preds if free_names(p) <= {"m"}][:20]
    for p in preds:
        for q in preds:
            same = fingerprint(p, u) == fingerprint(q, u)
            assert same == semantically_equiv(p, q, u), (p, q)


def test_fingerprint_constants():
    u = small_universe()
    assert fingerprint(FF_, u) == FF_KEY
    assert fingerprint(TT_, u) == TT_KEY
    assert fingerprint(And(TT_, Not(FF_)), u) == TT_KEY


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_is_ff_agrees_with_the_enumerating_oracle(seed):
    # names outside the universe (ma, mb, mc) widen the domain of both
    p = gen_pred(random.Random(seed), frozenset(), depth=3)
    u = small_universe()
    assert is_ff(p, u) == pred_oracle.is_ff(p, u)
    assert (fingerprint(p, u) == TT_KEY) == pred_oracle.is_tt(p, u)


# -- per-universe memo of is_ff and fingerprint ------------------------------


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_memoised_answers_match_a_fresh_universe(seed):
    rng = random.Random(seed)
    warm = small_universe()
    preds = [gen_pred(rng, frozenset(), depth=2) for _ in range(6)]
    for p in preds + preds[:3]:  # the repeats are answered from the memo
        assert is_ff(p, warm) == is_ff(p, small_universe())
        assert fingerprint(p, warm) == fingerprint(p, small_universe())


def test_a_new_universe_starts_with_an_empty_memo():
    warm = small_universe()
    is_ff(Cmp("=", Attr("a"), Lit(Int(0))), warm)
    assert warm.memo
    fresh = small_universe()
    assert fresh.memo == {}
    # the memo is not part of the universe's value
    assert fresh == warm and hash(fresh) == hash(warm)


def test_too_large_is_raised_on_every_call():
    u = Universe(frozenset({Int(0)}), Name("_w0"), budget=2)
    p = And(Cmp("=", Attr("a"), Lit(Int(0))), Cmp("=", Attr("b"), Lit(Int(0))))
    for _ in range(2):
        with pytest.raises(UniverseTooLarge):
            is_ff(p, u)
        with pytest.raises(UniverseTooLarge):
            fingerprint(p, u)
    assert u.memo == {}
