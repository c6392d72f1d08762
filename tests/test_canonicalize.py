"""Alpha-canonical forms, checked against the nameless (de Bruijn) oracle
and, for the cached component forms, against the plain walk of
``canon_oracle``."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import abcwb.explorer
import abcwb.syntax
from abcwb.attributes import Universe
from abcwb.equivalence import _explore_pair
from abcwb.explorer import build_lts
from abcwb.syntax import (
    AttributeEnv,
    Attr,
    Cmp,
    Comp,
    In,
    Lit,
    Name,
    NIL,
    Nu,
    Out,
    Par,
    SysPar,
    TT_,
    Var,
    _subterms,
    canonicalize,
    free_names,
    pretty_system,
    rename,
)

import canon_oracle
from astgen import gen_system, rename_binders, reserved_renaming
from conftest import load_corpus
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
    # and with reserved names free, which canonical binders must skip
    for s in (s, rename(s, reserved_renaming(s, rng))):
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


def _agrees(sys):
    got = canonicalize(sys)
    assert got == canon_oracle.canonicalize(sys)
    return got


def _receiver(*vars_):
    """A component that receives ``vars_`` and sends the last one on."""
    return Comp(AttributeEnv(), In(TT_, vars_, Out((Var(vars_[-1]),), TT_, NIL)))


def test_a_component_reads_the_same_beside_any_neighbour():
    # input binders are numbered from _v0 in each component, so b's form
    # is one object whatever binders its neighbours have, and a
    # restriction that does not bind b's free names leaves it alone
    b = _receiver("x")
    form = _agrees(b)
    assert pretty_system(form) == "{}: (tt)(_v0).(_v0)@(tt).0"
    # _v0 is free in this neighbour's input, so its binder skips to _v1
    skips = Comp(AttributeEnv(), In(Cmp("=", Attr("a"), Lit(Name("_v0"))), ("y",), NIL))
    hider = Comp(AttributeEnv.of({"a": Name("k")}), In(TT_, ("y", "z"), NIL))
    for neighbour in (_receiver("y"), _receiver("y", "z"), skips, hider):
        assert _agrees(SysPar(neighbour, b)).right is form
        assert _agrees(SysPar(b, neighbour)).left is form
        assert _agrees(Nu("k", SysPar(neighbour, b))).inner.right is form


def test_a_component_under_a_restriction_that_renames_its_free_names():
    # k is free in the component: its form depends on what k is renamed to
    pred = Cmp("=", Attr("a"), Lit(Name("k")))
    env = AttributeEnv.of({"a": Name("k")})
    comp = Comp(env, In(pred, ("x",), Out((Var("x"),), pred, NIL)))
    plain = _agrees(comp)
    hidden = _agrees(Nu("k", comp))
    assert hidden.name == "_n0" and hidden.inner.env.get("a") == Name("_n0")
    # a second restriction shifts the renaming; a kept name renames nothing
    shifted = _agrees(Nu("j", Nu("k", SysPar(comp, _receiver("y")))))
    assert shifted.inner.inner.left.env.get("a") == Name("_n1")
    assert _agrees(Nu("_n0", Nu("k", comp))).inner.inner.env.get("a") == Name("_n1")
    assert _agrees(comp) == plain
    assert _agrees(Nu("k", comp)) == hidden


@pytest.fixture
def recorded(monkeypatch):
    """Every (term, canonical form) pair the walks canonicalise."""
    calls = []

    def record(sys):
        out = canonicalize(sys)
        calls.append((sys, out))
        return out

    monkeypatch.setattr(abcwb.explorer, "canonicalize", record)
    return calls


def _corpus_walk(name, **kw):
    prog = load_corpus(name)
    return build_lts(prog.main, prog.defs, Universe.for_program(prog), **kw)


def _joint_walk():
    left, right = load_corpus("channels.abc"), load_corpus("pubsub.abc")
    roots, defs = (left.main, right.main), {**left.defs, **right.defs}
    return _explore_pair(roots, defs, Universe.for_systems(roots), repl_bound=3,
                         max_states=2000, message_budget=2000)


@pytest.mark.parametrize("walk", [
    pytest.param(lambda: _corpus_walk("robotics.abc", repl_bound=2), id="robotics"),
    pytest.param(lambda: _corpus_walk("pool.abc"), id="pool"),
    pytest.param(_joint_walk, id="channels-pubsub"),
])
def test_every_move_target_agrees_with_the_plain_walk(walk, recorded):
    walk()
    assert len(recorded) > 30
    for sys, got in recorded:
        assert got == canon_oracle.canonicalize(sys)


def test_robotics_walks_few_components(monkeypatch):
    # the amount of work is deterministic: a change to it is a reviewed
    # re-pin.  The plain walk makes 464,901 visits on the same walk.
    visits = 0
    walk = abcwb.syntax._canon

    def counted(node, rho, counter):
        nonlocal visits
        visits += 1
        return walk(node, rho, counter)

    monkeypatch.setattr(abcwb.syntax, "_canon", counted)
    lts = _corpus_walk("robotics.abc", repl_bound=2)
    assert (len(lts.states), len(lts.transitions)) == (2_750, 14_100)
    assert visits == 63_711
    # a component reads the same wherever it sits, so the states share
    # few distinct ones
    comps = {n for state in lts.states for n in _subterms(state) if type(n) is Comp}
    assert len(comps) == 65
