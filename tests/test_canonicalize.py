"""Alpha-canonical forms, checked against the nameless (de Bruijn) oracle
and, for the cached component forms, against the plain walk of
``canon_oracle``."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import abcwb.explorer
import abcwb.syntax
import abcwb.system
from abcwb.attributes import Universe, UniverseTooLarge
from abcwb.bpi import encode, parse_bpi
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
    subterms,
    canonicalize,
    free_names,
    map_children,
    pretty_system,
    rename,
)

import canon_oracle
from astgen import gen_system, rename_binders, reserved_renaming
from conftest import CORPUS, load_corpus
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


def _corpus_walk(name, **kw):
    prog = load_corpus(name)
    return build_lts(prog.main, prog.defs, Universe.for_program(prog), **kw)


def _joint_walk(roots, defs):
    """The states of a bisimulation walk, stimulus targets included."""
    _, space = _explore_pair(roots, defs, Universe.for_systems(roots, defs), repl_bound=3,
                             max_states=2000, message_budget=2000)
    return space.states


def _corpus_pair():
    left, right = load_corpus("channels.abc"), load_corpus("pubsub.abc")
    return _joint_walk((left.main, right.main), {**left.defs, **right.defs})


def _restricted_walk():
    # four broadcast-pi terms with restrictions, three of them on c
    text = " | ".join((CORPUS / "bpi" / f"t{k:02d}.bpi").read_text().strip()
                      for k in (9, 10, 19, 21))
    sys, defs = encode(parse_bpi(text))
    assert any(type(n) is Nu for n in subterms(sys))
    return build_lts(sys, defs, Universe.for_systems([sys], defs)).states


@pytest.mark.parametrize("walk", [
    pytest.param(lambda: _corpus_walk("robotics.abc", repl_bound=2).states, id="robotics"),
    pytest.param(lambda: _corpus_walk("pool.abc").states, id="pool"),
    pytest.param(_corpus_pair, id="channels-pubsub"),
    pytest.param(_restricted_walk, id="bpi-restricted"),
])
def test_every_move_target_agrees_with_the_plain_walk(walk):
    # a walk without restrictions stores its targets as built, so what it
    # stores is checked, not what it canonicalises
    states = walk()
    assert len(states) > 10
    for s in states:
        assert s == canon_oracle.canonicalize(s)


def _unrestricted(sys):
    """``sys`` with every restriction dropped: its names turn free."""
    if type(sys) is Nu:
        return _unrestricted(sys.inner)
    return sys if type(sys) is Comp else map_children(sys, _unrestricted)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_walks_store_canonical_states(seed):
    rng = random.Random(seed)
    drawn = rename_binders(gen_system(rng), rng)
    drawn = rename(drawn, reserved_renaming(drawn, rng))
    for root in (drawn, _unrestricted(drawn)):
        try:
            states = _joint_walk((root,), {})
        except UniverseTooLarge:
            continue
        for s in states:
            assert s == canon_oracle.canonicalize(s), seed
        if root is not drawn:
            # no step and no stimulus adds a restriction
            assert not any(type(n) is Nu for s in states for n in subterms(s)), seed


def _count_calls(monkeypatch, counts, name, module, *also):
    """Count the calls of ``module.name`` made through ``module`` and
    through each module of ``also``."""
    fn = getattr(module, name)

    def counted(*args):
        counts[name] += 1
        return fn(*args)

    for m in (module, *also):
        monkeypatch.setattr(m, name, counted)


def test_robotics_walks_few_components(monkeypatch):
    # the amount of work is deterministic: a change to it is a reviewed
    # re-pin.  The plain walk makes 464,901 visits on the same walk; with
    # the target canonicalised on every move it made 63,711 visits,
    # 14,101 canonicalize calls and 14,101 canon_label calls.
    counts = dict.fromkeys(("_canon", "canonicalize", "canon_label"), 0)
    _count_calls(monkeypatch, counts, "_canon", abcwb.syntax)
    _count_calls(monkeypatch, counts, "canonicalize", abcwb.syntax, abcwb.explorer,
                 abcwb.system)
    _count_calls(monkeypatch, counts, "canon_label", abcwb.explorer)
    lts = _corpus_walk("robotics.abc", repl_bound=2)
    assert (len(lts.states), len(lts.transitions)) == (2_750, 14_100)
    # the root, and each component successor once, when the memo keeps it.
    # A process or system node is always walked, as only those kinds can
    # hold a binder: 2,537 visits, where a cached per-node "holds a
    # binder" flag that also skipped binder-free processes made 1,645
    assert counts == {"_canon": 2_537, "canonicalize": 123, "canon_label": 5}
    # a component reads the same wherever it sits, so the states share
    # few distinct ones
    comps = {n for state in lts.states for n in subterms(state) if type(n) is Comp}
    assert len(comps) == 65
