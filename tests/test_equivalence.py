"""Behavioral equivalence: strong and weak comparison, observables,
and verdicts kept by one-hole contexts."""

import random

import pytest

from abcwb.attributes import TT_KEY, Universe
from abcwb.equivalence import barbs, bisimilar
from abcwb.parser import parse_system
from abcwb.syntax import AttributeEnv, Lit, pretty_system, value_sort_key

from contexts import draw_context, listener, plug, shouter


def mk(text, attrs=("a",)):
    return parse_system(text, attrs=attrs)


def both(s1, s2, **kw):
    u = Universe.for_systems([s1, s2])
    return (
        bisimilar(s1, s2, {}, u, weak=False, **kw),
        bisimilar(s1, s2, {}, u, weak=True, **kw),
    )


SILENT = "{a := 1}: ()@(ff).0"
STUCK = "{a := 1}: 0"


def test_silent_prefix_is_weakly_but_not_strongly_equivalent():
    strong, weak = both(mk(SILENT), mk(STUCK))
    assert not strong.equivalent
    assert weak.equivalent
    assert not strong.truncated and not weak.truncated


def test_strong_witness_names_the_unanswerable_move():
    strong, _ = both(mk(SILENT), mk(STUCK))
    assert strong.witness is not None


def test_reflexivity(robotics, groups, pubsub, channels, adaptation):
    for prog in (robotics, groups, pubsub, channels, adaptation):
        u = Universe.for_program(prog)
        res = bisimilar(prog.main, prog.main, prog.defs, u)
        assert res.equivalent and not res.truncated


def test_symmetric_small_pairs():
    a = mk("{a := 1}: ('m')@(tt).0")
    b = mk("{a := 1}: (('m')@(tt).0 + ('m')@(tt).0)")
    strong, weak = both(a, b)
    assert strong.equivalent and weak.equivalent


def test_different_payloads_are_distinguished():
    a = mk("{a := 1}: ('m')@(tt).0")
    b = mk("{a := 1}: ('n')@(tt).0")
    strong, weak = both(a, b)
    assert not strong.equivalent and not weak.equivalent
    assert weak.witness


def test_predicates_compared_semantically_not_syntactically():
    a = mk("{a := 1}: ('m')@(a = 1).0")
    b = mk("{a := 1}: ('m')@(a = 1 && tt).0")
    strong, _ = both(a, b)
    assert strong.equivalent


def test_receptiveness_is_observed():
    # one side can consume a message the other refuses
    a = mk("{a := 1}: (x = 'go')(x).('done')@(tt).0")
    b = mk("{a := 1}: (x = 'halt')(x).('done')@(tt).0")
    strong, weak = both(a, b)
    assert not strong.equivalent and not weak.equivalent


def test_strong_implies_weak_on_checked_pairs():
    pairs = [
        (mk(SILENT), mk(STUCK)),
        (mk("{a := 1}: ('m')@(tt).0"), mk("{a := 1}: (('m')@(tt).0 + 0)")),
        (mk("{a := 1}: ('m')@(tt).0"), mk("{a := 2}: ('m')@(tt).0")),
    ]
    for s1, s2 in pairs:
        strong, weak = both(s1, s2)
        if strong.equivalent:
            assert weak.equivalent


def test_barbs_of_an_output():
    s = mk("{a := 1}: ('m')@(tt).0")
    u = Universe.for_systems([s])
    bs = barbs(s, {}, u)
    assert (TT_KEY, 1) in bs


def test_silent_send_has_no_barb():
    s = mk(SILENT)
    u = Universe.for_systems([s])
    assert barbs(s, {}, u) == set()


def _fixed_contexts(values):
    """Four one-layer contexts: beside a listener, beside a shouter of the
    least value, under a restriction and under a replication."""
    vals = sorted(values, key=value_sort_key)
    empty = AttributeEnv.of({})
    payload = (Lit(vals[0]),) if vals else ()
    return [
        [("hole || C", listener(empty))],
        [("C || hole", shouter(empty, payload))],
        [("nu", None)],
        [("!", None)],
    ]


def test_fixed_context_family_preserves_weak_verdict():
    s1, s2 = mk(SILENT), mk(STUCK)
    u = Universe.for_systems([s1, s2])
    contexts = _fixed_contexts(u.values)
    assert contexts
    for layers in contexts:
        res = bisimilar(plug(layers, s1), plug(layers, s2), {}, u, weak=True, repl_bound=2)
        assert res.equivalent, layers


def test_fixed_context_family_preserves_inequivalence():
    s1 = mk("{a := 1}: ('m')@(tt).0")
    s2 = mk("{a := 1}: ('n')@(tt).0")
    u = Universe.for_systems([s1, s2])
    for layers in _fixed_contexts(u.values):
        res = bisimilar(plug(layers, s1), plug(layers, s2), {}, u, repl_bound=2)
        assert not res.equivalent, layers


def test_random_contexts_are_identical_for_both_sides():
    s = mk(SILENT)
    u = Universe.for_systems([s])
    rng = random.Random(9)
    for _ in range(20):
        layers = draw_context(rng, u.values)
        assert pretty_system(plug(layers, s)) == pretty_system(plug(layers, s))


def _witness_levels(witness):
    levels = []
    while witness is not None:
        levels.append(witness)
        witness = witness["continues"]
    return levels


@pytest.mark.parametrize("left, right", [
    ("{a := 1}: ('m')@(tt).0", "{a := 1}: ('n')@(tt).0"),
    ("{a := 1}: ()@(ff).('m')@(tt).0", "{a := 1}: ()@(ff).('n')@(tt).0"),
])
def test_weak_witness_ends_in_an_unanswered_move(left, right):
    _, weak = both(mk(left), mk(right))
    assert not weak.equivalent
    levels = _witness_levels(weak.witness)
    # no stutter that restates the pair: each level parts a shallower pair
    assert len(levels) <= 2
    assert all(level["from"] != level["to"] or level["label"] != "tau" for level in levels)


def test_a_full_stimulus_pool_makes_the_verdict_inconclusive():
    # the left side's three sends each add a stimulus the pool offers back
    left = mk("{a := 0}: ('m')@(a = 1).('m')@(a = 2).('m')@(a = 3).0 || {a := 1}: (tt)(x).0")
    right = mk("{a := 0}: ('m')@(a = 1).0 || {a := 1}: (tt)(x).0")
    full = bisimilar(left, right, {}, message_budget=7)
    assert full.truncated and full.reasons == ["stimulus budget exhausted"]
    roomy = bisimilar(left, right, {}, message_budget=8)
    assert not roomy.truncated and not roomy.equivalent


@pytest.mark.xfail(strict=True, reason="a name extruded by a send keeps the spelling its "
                   "restriction had in the canonical source, which depends on how the "
                   "restrictions nest")
def test_the_order_of_two_restrictions_does_not_matter():
    body = "{}: ('b')@(tt).('a')@(tt).('b')@(tt).0"
    # structurally congruent: nu a nu b P = nu b nu a P
    res = bisimilar(mk(f"nu a (nu b ({body}))"), mk(f"nu b (nu a ({body}))"), {})
    assert res.equivalent and not res.truncated
