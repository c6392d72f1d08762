"""Alpha-canonical forms, checked against the nameless (de Bruijn) oracle."""

import random

from hypothesis import given, settings, strategies as st

from abcwb.syntax import (
    AttributeEnv,
    Comp,
    In,
    Name,
    NIL,
    Nu,
    Out,
    Par,
    TT_,
    Var,
    canonicalize,
    free_names,
    pretty_system,
)

from astgen import gen_system, rename_binders
from debruijn import debruijn


def test_two_input_binders_are_not_captured():
    # renaming _v0 to _v1 first must not capture the second binder _v1:
    # the continuation sends the second received value before and after
    s = Comp(
        AttributeEnv(),
        Par(
            In(TT_, ("a",), NIL),
            In(TT_, ("_v0", "_v1"), Out((Var("_v1"),), TT_, NIL)),
        ),
    )
    c = canonicalize(s)
    assert pretty_system(c) == "{}: ((tt)(_v0).0 | (tt)(_v1, _v2).(_v2)@(tt).0)"
    assert debruijn(c) == debruijn(s)


def test_restriction_renamed_past_a_free_canonical_name():
    # _n0 is free here, so the binder takes the next name
    s = Nu("x", Comp(AttributeEnv.of({"a": Name("x"), "b": Name("_n0")}), NIL))
    c = canonicalize(s)
    assert c.name == "_n1"
    assert debruijn(c) == debruijn(s)


def test_canonical_form_is_returned_itself():
    rng = random.Random(3)
    for _ in range(200):
        c = canonicalize(gen_system(rng))
        assert canonicalize(c) is c


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_canonical_form_is_alpha_equivalent(seed):
    rng = random.Random(seed)
    s = rename_binders(gen_system(rng, depth=3), rng)
    c = canonicalize(s)
    assert debruijn(c) == debruijn(s)
    assert free_names(c) == free_names(s)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_canonical_forms_equal_iff_alpha_equivalent(seed):
    rng = random.Random(seed)
    base = gen_system(rng, depth=3)
    # scrambling rebinds the variables of multi-variable inputs, so about
    # one pair in ten differs
    s1 = rename_binders(base, rng)
    s2 = rename_binders(base, rng, scramble=rng.random() < 0.5)
    same = debruijn(s1) == debruijn(s2)
    assert (canonicalize(s1) == canonicalize(s2)) == same
