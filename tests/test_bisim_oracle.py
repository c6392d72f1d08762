"""Differential tests: the numbered bisimulation engine against a
state-keyed greatest-fixpoint reference (``bisim_oracle``).

The reference offers every stimulus to every state through
``sys_deliver``, and steps every state with a memo of its own, so it
also checks, edge for edge, the engine's shortcut that keeps a stimulus
every component discards as an implicit self-loop and the walk's memo of
component steps.  The engine's refinement over those implicit loops is
checked against refinement over fully built ones (``refine_oracle``):
the same partition in every round and the same witness."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from abcwb.attributes import Universe, UniverseTooLarge
from abcwb.equivalence import (
    _build_witness,
    _explore_pair,
    _refine,
    _weak_closure,
    bisimilar,
)
from abcwb.parser import parse_system
from abcwb.syntax import Comp, FF_, NIL, Nu, Out, SysPar

from astgen import gen_env, gen_system
from bisim_oracle import explore, oracle_bisimilar, related, saturate
from conftest import load_corpus
from contexts import draw_context, plug
from refine_oracle import full_succ, refine, weak_closure

# the bounds `abcwb bisim` runs with by default
CLI_BOUNDS = dict(repl_bound=3, max_states=2000, message_budget=2000)


def _edges(succ) -> int:
    return sum(len(ts) for moves in succ.values() for ts in moves.values())


def _by_term(space):
    """The engine's joint space keyed as the reference keys it, with
    its implicit discard loops put back."""
    states, labels = space.states, space.labels
    return {
        states[i]: {
            labels[k]: {states[j] for j in ts} for k, ts in space.moves(i).items()
        }
        for i in space.succ
    }


def _in_order(space, succ) -> bool:
    """Whether every state's moves, discards put back, come in the order
    the reference found their labels: steps first, then stimuli as they
    were offered.  A witness tries moves in this order."""
    states, labels = space.states, space.labels
    return all(
        [labels[k] for k in space.moves(i)] == list(succ[states[i]]) for i in space.succ
    )


def _same_space(s1, s2, defs, universe, **kw):
    """Whether the engine and the reference build the same joint space;
    None when the engine's is truncated."""
    roots, space = _explore_pair((s1, s2), defs, universe, **kw)
    if space.truncated:
        return None
    inits, succ = explore((s1, s2), defs, universe, **kw)
    return (
        [space.states[i] for i in roots] == inits
        and _by_term(space) == succ
        and _in_order(space, succ)
    )


def _refine_matches_the_oracle(s1, s2, defs, universe, **kw):
    """Refine the engine's space over implicit discards and over fully
    built ones, strong and weak: the same blocks in every round, the
    same moves in the same label order, and the same witness as
    ``bisimilar`` reports."""
    (i1, i2), space = _explore_pair((s1, s2), defs, universe, **kw)
    if i1 is None or i2 is None:
        return
    succ = full_succ(space)
    weak_moves, takes, tclo = _weak_closure(space)
    for s, want in weak_closure(succ).items():
        # a stimulus no state of the tau-closure takes leads to all of it
        implicit = {k: tclo[s] for k in space.stimuli if k not in takes[s]}
        got = {k: frozenset(ts) for k, ts in {**weak_moves[s], **implicit}.items()}
        assert got == {k: frozenset(ts) for k, ts in want.items()}, s
    for weak in (False, True):
        moves, block, history = _refine(space, weak)
        old_moves, old_block, old_history = refine(succ, weak)
        assert (block, history) == (old_block, old_history), weak
        for s in space.succ:
            got, want = moves(s), old_moves[s]
            assert list(got) == list(want), (weak, s)
            assert all(set(got[k]) == set(want[k]) for k in want), (weak, s)
        witness = bisimilar(s1, s2, defs, universe, weak=weak, **kw).witness
        if block[i1] == block[i2]:
            assert witness is None
        else:
            assert witness == _build_witness(
                i1, i2, space, old_moves.__getitem__, old_history
            ), weak


def _corpus_pair(left, right):
    l, r = load_corpus(left), load_corpus(right)
    main = r.main
    if left == right:  # the same system with its outer operands swapped
        main = SysPar(main.right, main.left)
    return l.main, main, {**l.defs, **r.defs}


@pytest.mark.parametrize(
    "left, right, equivalent",
    [
        ("channels.abc", "pubsub.abc", False),
        ("groups.abc", "adaptation.abc", False),
        ("pubsub.abc", "pubsub.abc", True),
    ],
)
def test_corpus_verdicts_match_the_oracle(left, right, equivalent):
    s1, s2, defs = _corpus_pair(left, right)
    universe = Universe.for_systems([s1, s2])
    (i1, i2), succ = explore((s1, s2), defs, universe, **CLI_BOUNDS)
    roots, space = _explore_pair((s1, s2), defs, universe, **CLI_BOUNDS)
    assert [space.states[i] for i in roots] == [i1, i2]
    assert _by_term(space) == succ  # edge for edge
    assert _in_order(space, succ)
    for weak, moves in ((False, succ), (True, saturate(succ))):
        res = bisimilar(s1, s2, defs, universe, weak=weak)
        assert res.equivalent == related(moves, i1, i2) == equivalent, weak
        assert not res.truncated
    _refine_matches_the_oracle(s1, s2, defs, universe, **CLI_BOUNDS)


@pytest.mark.parametrize(
    "left, right",
    [
        # the extruded name is discarded by the raw component and received
        # once the restriction it clashes with is renamed
        (
            "nu y ({a := 0}: (x != 'y')(x).('got')@(tt).0)",
            "nu z ({a := 1}: ('z')@(tt).0)",
        ),
        # ``rand`` is a choice: the first component has eight silent
        # steps, the second receives "go" after any of its eight updates
        (
            "{x := 0}: [x := rand(8)]()@(ff).0 || "
            "{y := 0}: [y := rand(8)](m = 'go')(m).(this.y)@(tt).0",
            "{y := 0}: [y := rand(8)](m = 'go')(m).(this.y)@(tt).0",
        ),
    ],
)
@pytest.mark.parametrize("seed", range(4))
def test_discard_shortcut_guards_match_the_oracle(left, right, seed):
    s1, s2 = (parse_system(t, attrs=("a", "x", "y")) for t in (left, right))
    universe = Universe.for_systems([s1, s2])
    assert _same_space(s1, s2, {}, universe, **CLI_BOUNDS)
    _refine_matches_the_oracle(s1, s2, {}, universe, **CLI_BOUNDS)
    # the run seed is echoed only: the verdict is the oracle's at every seed
    for weak in (False, True):
        assert bisimilar(s1, s2, {}, universe, weak=weak, seed=seed).equivalent == \
            oracle_bisimilar(s1, s2, {}, universe, weak=weak)


def test_channels_pubsub_joint_space_size():
    s1, s2, defs = _corpus_pair("channels.abc", "pubsub.abc")
    universe = Universe.for_systems([s1, s2])
    _, space = _explore_pair((s1, s2), defs, universe, **CLI_BOUNDS)
    assert len(space.succ) == 774
    assert _edges({i: space.moves(i) for i in space.succ}) == 63_838
    # all but these are discards, kept as implicit self-loops
    assert _edges(space.succ) == 1_666
    _, succ = explore((s1, s2), defs, universe, **CLI_BOUNDS)
    assert (len(succ), _edges(succ)) == (774, 63_838)
    # every label number names one canonical label, tau first
    assert space.labels[0] == ("tau",)
    assert len(set(space.labels)) == len(space.labels)


def _variant(rng: random.Random, a):
    """A second system for ``a``: unrelated, or a variant that is
    bisimilar (strongly, or only weakly) or nearly so."""
    k = rng.randrange(5)
    if k == 0:
        return gen_system(rng)
    if k == 1:
        if isinstance(a, SysPar):
            return SysPar(a.right, a.left)
        return SysPar(a, Comp(gen_env(rng), NIL))  # an inert component
    if k == 2:
        return Nu("zz", a)
    if k == 3 and isinstance(a, Comp):
        return Comp(a.env, Out((), FF_, a.proc))  # one silent step first
    return SysPar(a, gen_system(rng, 1))


def _outcome(decide):
    try:
        return decide()
    except UniverseTooLarge:
        return "UniverseTooLarge"


# bounds small enough for hundreds of generated pairs
PAIR_BOUNDS = dict(repl_bound=1, max_states=30, message_budget=200)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_random_pairs_match_the_oracle(seed):
    rng = random.Random(seed)
    a = gen_system(rng)
    b = _variant(rng, a)
    universe = Universe.for_systems([a, b])
    for weak in (False, True):
        engine = _outcome(
            lambda: bisimilar(a, b, {}, universe, weak=weak, **PAIR_BOUNDS).equivalent
        )
        oracle = _outcome(
            lambda: oracle_bisimilar(a, b, {}, universe, weak=weak, **PAIR_BOUNDS)
        )
        assert engine == oracle, (weak, seed)
    assert _outcome(lambda: _same_space(a, b, {}, universe, **PAIR_BOUNDS)) is not False, seed
    _outcome(lambda: _refine_matches_the_oracle(a, b, {}, universe, **PAIR_BOUNDS))


def _context_mismatches(seed, count=5):
    """The drawn contexts whose decided strong verdict differs from the
    pair's, as (layers, verdict in context, verdict of the pair); none
    when the pair's own verdict is undecided."""
    rng = random.Random(seed)
    a = gen_system(rng)
    b = _variant(rng, a)
    universe = Universe.for_systems([a, b])

    def verdict(s1, s2):
        """True or False, or None when truncated or too large to decide."""
        res = _outcome(lambda: bisimilar(s1, s2, {}, universe, **PAIR_BOUNDS))
        if res == "UniverseTooLarge" or res.truncated:
            return None
        return res.equivalent

    pair = verdict(a, b)
    if pair is None:
        return []
    out = []
    for _ in range(count):
        layers = draw_context(rng, universe.values)
        got = verdict(plug(layers, a), plug(layers, b))
        if got is not None and got != pair:
            out.append((layers, got, pair))
    return out


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_decided_strong_verdicts_hold_in_every_context(seed):
    # both directions: a context must neither part a bisimilar pair nor
    # join one that is not
    assert _context_mismatches(seed) == [], seed
