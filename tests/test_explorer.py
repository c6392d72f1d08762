"""Bounded exploration: canonical states, bounds, determinism, witnesses."""

import gc
from collections import Counter, deque

from abcwb import explorer
from abcwb.attributes import Universe
from abcwb.explorer import (
    build_lts,
    canon_label,
    env_has,
    label_text,
    lts_to_dict,
    lts_to_json,
    lts_to_text,
    random_trace,
    reachable_matching,
    witness_path,
)
from abcwb.parser import parse_system
from abcwb.syntax import Attr, Cmp, Int, Lit, Name, TT_, TupleV, pretty_system
from abcwb.system import SOut

from conftest import load_corpus


def mk(text, attrs=()):
    return parse_system(text, attrs=attrs)


def test_lts_of_single_send():
    s = mk("{a := 1}: ('m')@(tt).0", attrs=("a",))
    lts = build_lts(s, {})
    assert len(lts.states) == 2
    assert len(lts.transitions) == 1
    assert not lts.truncated


def test_alpha_variants_collapse_to_one_state():
    from abcwb.syntax import AttributeEnv, Comp, Lit, NIL, Nu, Out, TT_

    def variant(n):
        return Nu(n, Comp(AttributeEnv.of({"a": Name(n)}),
                          Out((Lit(Name(n)),), TT_, NIL)))

    assert build_lts(variant("x"), {}).states == build_lts(variant("z"), {}).states


def test_max_states_truncates_with_reason():
    s = mk("!{a := 0}: ('m')@(tt).0", attrs=("a",))
    lts = build_lts(s, {}, max_states=3, repl_bound=5)
    assert lts.truncated
    assert any("state" in r for r in lts.reasons)


def test_replication_bound_noted_when_hit():
    s = mk("!{a := 0}: ('m')@(tt).0", attrs=("a",))
    lts = build_lts(s, {}, repl_bound=1, max_states=100)
    assert lts.truncated
    assert lts.reasons


def test_max_depth_cuts_exploration():
    s = mk("{a := 0}: ('1')@(tt).('2')@(tt).('3')@(tt).0", attrs=("a",))
    full = build_lts(s, {})
    cut = build_lts(s, {}, max_depth=1)
    assert len(full.states) == 4
    assert len(cut.states) == 2 and cut.truncated


def test_exploration_is_deterministic(channels):
    u = Universe.for_program(channels)
    a = lts_to_json(build_lts(channels.main, channels.defs, u, seed=3))
    b = lts_to_json(build_lts(channels.main, channels.defs, u, seed=3))
    assert a == b
    assert lts_to_text(build_lts(channels.main, channels.defs, u, seed=3)) == \
        lts_to_text(build_lts(channels.main, channels.defs, u, seed=3))


def test_random_trace_deterministic_per_seed(robotics):
    u = Universe.for_program(robotics)
    t1 = random_trace(robotics.main, robotics.defs, u, seed=5, steps=6)
    t2 = random_trace(robotics.main, robotics.defs, u, seed=5, steps=6)
    assert t1 == t2


def test_extruded_names_become_placeholders_in_order_of_occurrence():
    # the payload sends the second restriction first; renaming _n1 to
    # _n0 before _n0 is renamed would merge the two
    s = mk("nu a (nu b ({}: ('b', 'a')@(tt).0))")
    u = Universe.for_systems([s])
    crossed = SOut(frozenset({"_n0", "_n1"}), TT_, (Name("_n1"), Name("_n0")))
    named = SOut(frozenset({"a", "b"}), TT_, (Name("b"), Name("a")))
    want = ("out", canon_label(named, u)[1], (Name("_n0"), Name("_n1")), ("_n0", "_n1"))
    assert canon_label(crossed, u) == canon_label(named, u) == want
    # a name the payload does not send is numbered from the predicate
    pred = Cmp("=", Attr("k"), Lit(Name("_n0")))
    hidden = SOut(frozenset({"_n0", "_n1"}), pred, (Name("_n1"),))
    _, _, values, placeholders = canon_label(hidden, u)
    assert values == (Name("_n0"),) and placeholders == ("_n0", "_n1")
    # names inside one tuple are numbered left to right, not by spelling
    nested = SOut(frozenset({"a", "b"}), TT_, (TupleV((Name("b"), Name("a"))),))
    assert canon_label(nested, u)[2] == (TupleV((Name("_n0"), Name("_n1"))),)
    # a placeholder skips the names the label leaves free
    later = SOut(frozenset({"_n1"}), TT_, (Name("_n0"), Name("_n1")))
    assert canon_label(later, u)[2:] == ((Name("_n0"), Name("_n1")), ("_n1",))
    renamed = SOut(frozenset({"b"}), TT_, (Name("b"), Name("_n0")))
    assert canon_label(renamed, u)[2:] == ((Name("_n1"), Name("_n0")), ("_n1",))


def test_env_has_and_reachable(groups):
    lts = build_lts(groups.main, groups.defs, Universe.for_program(groups))
    hit = reachable_matching(lts, lambda s: env_has(s, "got", Name("msg")))
    assert hit is not None


def _distances(lts):
    """Distance of every state from the initial one, by a breadth-first
    search over the finished graph."""
    fwd = {}
    for i, _, j in lts.transitions:
        fwd.setdefault(i, []).append(j)
    dist = {lts.initial: 0}
    queue = deque([lts.initial])
    while queue:
        cur = queue.popleft()
        for nxt in fwd.get(cur, ()):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist


def test_witness_path_replays_to_target(groups, robotics):
    for prog, max_states in ((groups, 10_000), (robotics, 300)):
        lts = build_lts(prog.main, prog.defs, Universe.for_program(prog),
                        max_states=max_states)
        moves = {(i, label_text(lab), j) for i, lab, j in lts.transitions}
        dist = _distances(lts)
        for target in range(len(lts.states)):
            lines = witness_path(lts, target)
            assert lines[0] == f"[{lts.initial}] {pretty_system(lts.states[lts.initial])}"
            cur = lts.initial
            for line in lines[1:]:
                lab, _, rest = line.partition(" -> [")
                j, _, text = rest.partition("] ")
                assert (cur, lab, int(j)) in moves
                assert text == pretty_system(lts.states[int(j)])
                cur = int(j)
            assert cur == target
            assert len(lines) - 1 == dist[target]


def test_result_does_not_depend_on_the_seed(robotics):
    # every ``rand(4)`` choice is explored, so the space is complete and
    # the same at every seed; only its ``seed:`` line echoes the seed
    u = Universe.for_program(robotics)
    texts = set()
    for seed in (0, 5):
        lts = build_lts(robotics.main, robotics.defs, u, seed=seed, repl_bound=2)
        assert (len(lts.states), len(lts.transitions)) == (2_750, 14_100), seed
        assert not lts.truncated and lts.reasons == []
        text = lts_to_text(lts)
        assert text.startswith(f"seed: {seed}\n")
        texts.add(text.split("\n", 1)[1])
    assert len(texts) == 1


def test_each_label_is_formatted_once_per_render(robotics, monkeypatch):
    lts = build_lts(robotics.main, robotics.defs, Universe.for_program(robotics),
                    repl_bound=2, max_states=300)
    want = [label_text(lab) for _, lab, _ in lts.transitions]
    formatted = Counter()

    def counting(lab):
        formatted[id(lab)] += 1
        return label_text(lab)

    monkeypatch.setattr(explorer, "label_text", counting)
    lines = lts_to_text(lts).split("\n")[4 + len(lts.states):]
    blob = lts_to_dict(lts)
    # the walk interns labels: far fewer label objects than moves
    assert len(formatted) < len(lts.transitions) // 10
    assert set(formatted) == {id(lab) for _, lab, _ in lts.transitions}
    assert set(formatted.values()) == {2}  # once for the text, once for the dict
    assert [t["label"] for t in blob["transitions"]] == want
    assert lines == [f"  [{i}] --{t}--> [{j}]" for (i, _, j), t in zip(lts.transitions, want)]


def test_exploring_and_printing_leave_no_reference_cycles():
    # canonical forms and printed text are cached on the components: a
    # component that is its own form must not refer to itself, and the
    # walks must not build closures that refer to each other
    prog = load_corpus("robotics.abc")
    universe = Universe.for_program(prog)
    gc.collect()
    gc.disable()
    try:
        lts = build_lts(prog.main, prog.defs, universe, repl_bound=2)
        lts_to_text(lts)
        assert gc.collect() == 0
    finally:
        gc.enable()
