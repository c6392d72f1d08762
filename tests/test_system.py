"""System semantics: synchronization, discards, hiding, opening,
replication fuel, and the behavior of the shipped example systems."""

import gc
import random
from collections import Counter
from operator import is_

from abcwb.attributes import TT_KEY, Universe, fingerprint, is_ff
from abcwb.bpi import encode
from abcwb import system
from abcwb.explorer import Walk, build_lts, canon_label
from abcwb.parser import parse_process, parse_system
from abcwb.syntax import (
    Attr,
    AttributeEnv,
    Bang,
    Cmp,
    Comp,
    In,
    Int,
    Lit,
    Name,
    NIL,
    Nu,
    Out,
    Par,
    Sum,
    SysPar,
    TT_,
    Var,
    canonicalize,
    free_names,
    pretty_system,
    spine,
)
from abcwb.system import SOut, TAU, freshen_binders, set_fuel, sys_deliver, system_steps

import step_oracle
from bpigen import gen_term
from conftest import load_corpus
from debruijn import debruijn


def comps(s):
    if isinstance(s, SysPar):
        yield from comps(s.left)
        yield from comps(s.right)
    elif isinstance(s, (Bang, Nu)):
        yield from comps(s.inner)
    else:
        yield s


def mk(text, attrs=()):
    return parse_system(text, attrs=attrs)


def universe_of(*systems):
    return Universe.for_systems(list(systems))


# -- basic rules -------------------------------------------------------------


def test_false_predicate_send_is_silent():
    s = mk("{a := 1}: ()@(ff).0", attrs=("a",))
    steps = system_steps(s, {}, universe_of(s), {})
    assert [lab for lab, _ in steps] == [TAU]


def test_broadcast_reaches_all_matching_siblings():
    s = mk(
        "{s := 0}: ('m')@(tt).0"
        " || {a := 1}: (tt)(x).0"
        " || {a := 2}: (tt)(x).0",
        attrs=("s", "a"),
    )
    steps = system_steps(s, {}, universe_of(s), {})
    outs = [(lab, t) for lab, t in steps if isinstance(lab, SOut)]
    assert len(outs) == 1
    _, succ = outs[0]
    # both listeners consumed their input prefix
    assert all(c.proc == NIL for c in comps(succ))


def test_non_matching_sibling_is_left_unchanged():
    s = mk(
        "{s := 0}: ('m')@(a = 1).0"
        " || {a := 1}: (tt)(x).0"
        " || {a := 2}: (tt)(x).0",
        attrs=("s", "a"),
    )
    ((lab, succ),) = system_steps(s, {}, universe_of(s), {})
    got = list(comps(succ))
    assert got[1].proc == NIL          # matched and received
    assert isinstance(got[2].proc, In)  # predicate failed: untouched


def test_hiding_makes_send_fully_silent():
    # the carried predicate mentions the hidden name, so outside the
    # binder nobody can tell the send happened
    s = Nu("x", Comp(
        AttributeEnv.of({"a": Int(1)}),
        Out((Lit(Name("v")),), Cmp("=", Attr("id"), Lit(Name("x"))), NIL),
    ))
    steps = system_steps(s, {}, universe_of(s), {})
    assert [lab for lab, _ in steps] == [TAU]


def test_partial_hiding_restricts_the_label():
    from abcwb.syntax import Or

    pred = Or(Cmp("=", Attr("id"), Lit(Name("x"))), Cmp("=", Attr("a"), Lit(Int(1))))
    s = Nu("x", Comp(AttributeEnv.of({}), Out((Lit(Int(0)),), pred, NIL)))
    u = universe_of(s)
    ((lab, succ),) = system_steps(s, {}, u, {})
    assert isinstance(lab, SOut)
    assert fingerprint(lab.pred, u) == fingerprint(Cmp("=", Attr("a"), Lit(Int(1))), u)
    assert isinstance(succ, Nu)  # the name stays private


def test_sending_a_private_name_opens_the_binder():
    s = Nu("x", Comp(AttributeEnv.of({}), Out((Lit(Name("x")),), TT_, NIL)))
    u = universe_of(s)
    ((lab, succ),) = system_steps(s, {}, u, {})
    assert isinstance(lab, SOut)
    assert len(lab.bound) == 1
    (b,) = tuple(lab.bound)
    assert lab.values == (Name(b),)
    assert not isinstance(succ, Nu)  # binder moved onto the label


def test_plain_restriction_passes_through():
    s = Nu("x", Comp(AttributeEnv.of({}), Out((Lit(Int(3)),), TT_, NIL)))
    u = universe_of(s)
    ((lab, succ),) = system_steps(s, {}, u, {})
    assert not lab.bound
    assert fingerprint(lab.pred, u) == TT_KEY
    assert isinstance(succ, Nu)


def test_replication_fuel_limits_unfolding():
    s = Bang(mk("{a := 1}: ('m')@(tt).0", attrs=("a",)))
    u = universe_of(s)
    dry = ["replication budget exhausted"]
    # ran dry, and the walk says so: at the top, under a restriction, and
    # nested in a bang that still has fuel
    assert build_lts(s, {}, u, repl_bound=0).reasons == dry
    assert build_lts(Nu("x", s), {}, u, repl_bound=0).reasons == dry
    nested = Bang(SysPar(Bang(s.inner, 0), s.inner))
    assert build_lts(nested, {}, u, repl_bound=1, max_depth=1).reasons == dry + [
        "depth bound reached"
    ]
    # fuel left is no reason
    assert build_lts(s, {}, u, repl_bound=1, max_depth=1).reasons == [
        "depth bound reached"
    ]
    steps = system_steps(set_fuel(s, 1), {}, u, {})
    assert steps


def test_private_name_does_not_clash_with_sibling():
    # both halves privately use 'x'; an extruded x must not be confused
    # with the sibling's free x
    s = SysPar(
        Nu("x", Comp(AttributeEnv.of({}), Out((Lit(Name("x")),), TT_, NIL))),
        Comp(AttributeEnv.of({"a": Name("x")}), NIL),
    )
    u = universe_of(s)
    outs = [lab for lab, _ in system_steps(s, {}, u, {}) if isinstance(lab, SOut)]
    assert outs
    for lab in outs:
        if lab.bound:
            assert lab.values[0] != Name("x")


def _extruded(lab) -> list:
    """A label's extruded names in the order ``canon_label`` numbers them."""
    order = []
    for node in (*lab.values, lab.pred):
        order += [n for n in sorted(free_names(node)) if n in lab.bound and n not in order]
    return order


def _closed(steps, universe) -> Counter:
    """Steps as canonical (label, successor) pairs, the successor under
    the names its label extrudes, restricted again in label order."""
    out = Counter()
    for lab, succ in steps:
        if lab is not TAU:
            for n in reversed(_extruded(lab)):
                succ = Nu(n, succ)
        out[canon_label(lab, universe), canonicalize(succ)] += 1
    return out


def test_steps_match_the_oracle_that_renames_extruded_names(monkeypatch):
    # successors are stepped as they come: in a walk's canonical states
    # restrictions are _n<k> and input binders _v<k>, which never clash,
    # so only raw successors tell the two apart
    renamed = Counter()
    avoid_clash = step_oracle._avoid_clash

    def spy(lab, origin, sibling):
        out = avoid_clash(lab, origin, sibling)
        renamed[out[0] is not lab] += 1
        return out

    monkeypatch.setattr(step_oracle, "_avoid_clash", spy)
    for seed in range(300):
        sys, defs = encode(gen_term(random.Random(seed), 4))
        universe = Universe.for_systems([sys], defs)
        memo, oracle_memo = {}, {}
        layer, seen = [sys], {sys}
        for _ in range(6):
            below = []
            for s in layer:
                got = system_steps(s, defs, universe, memo)
                want = step_oracle.system_steps(s, defs, universe, oracle_memo)
                assert _closed(got, universe) == _closed(want, universe), (seed, s)
                for _, t in got:
                    if t not in seen:
                        seen.add(t)
                        below.append(t)
            layer = below
    # the oracle renamed the names of 274 of 5,227 sends when this was written
    assert renamed[True] > 100, renamed


def test_freshen_binders_separates_equal_restrictions():
    half = Nu("x", Comp(AttributeEnv.of({"a": Name("x")}), Out((Lit(Name("x")),), TT_, NIL)))
    # nu x (...) || nu x (...), alone and beside a free x
    for free in (False, True):
        s = SysPar(half, half)
        if free:
            s = SysPar(s, Comp(AttributeEnv.of({"b": Name("x")}), NIL))
        fresh = freshen_binders(s)
        pair = fresh.left if free else fresh
        names = {pair.left.name, pair.right.name}
        assert len(names) == 2 and ("x" in names) != free
        assert debruijn(fresh) == debruijn(s)


def test_freshen_binders_returns_a_restriction_free_system_as_it_is(monkeypatch):
    # nothing to rename: no free names are gathered and no spine is rebuilt
    prog = load_corpus("pool.abc")
    states = build_lts(prog.main, prog.defs, Universe.for_program(prog)).states
    called = []
    free = system.free_names

    def counting(node):
        called.append(node)
        return free(node)

    monkeypatch.setattr(system, "free_names", counting)
    for s in [prog.main, *states]:
        assert freshen_binders(s) is s
    assert not called


def test_a_discarded_message_returns_the_system_itself():
    listener = Comp(AttributeEnv.of({}), In(Cmp("=", Var("x"), Lit(Name("go"))), ("x",), NIL))
    s = Nu("y", SysPar(listener, Comp(AttributeEnv.of({}), NIL)))
    (same,) = sys_deliver(s, TT_, (Name("stop"),), {}, {})
    assert same is s
    (moved,) = sys_deliver(s, TT_, (Name("go"),), {}, {})
    assert moved != s
    # a message naming the bound y renames the binder: equal up to alpha only
    (renamed,) = sys_deliver(s, TT_, (Name("y"),), {}, {})
    assert renamed is not s and renamed.name != "y"
    assert canonicalize(renamed) == canonicalize(s)


def test_a_memo_hit_still_returns_the_system_itself():
    # the memo holds the discard of an equal component: the caller still
    # gets its own object back
    first, second = (
        Comp(AttributeEnv.of({}), In(Cmp("=", Var("x"), Lit(Name("go"))), ("x",), NIL))
        for _ in range(2)
    )
    assert first == second and first is not second
    memo = {}
    assert sys_deliver(first, TT_, (Name("stop"),), {}, memo)[0] is first
    assert sys_deliver(second, TT_, (Name("stop"),), {}, memo)[0] is second


def test_one_memo_serves_every_state_of_a_walk(robotics):
    # a component's steps depend only on the component: sharing one memo
    # over many states gives each state the steps a fresh memo gives it
    u = Universe.for_program(robotics)
    lts = build_lts(robotics.main, robotics.defs, u, max_states=300)
    shared = {}
    for state in lts.states:
        assert system_steps(state, robotics.defs, u, shared) == \
            system_steps(state, robotics.defs, u, {})


# -- four components mid-run: the query synchronization ----------------------


def _mid_run_system(robotics):
    attrs = robotics.attrs
    walk = parse_process("<this.collision = tt>RandWalk()", attrs=attrs)
    answer = parse_process(
        "(y = 'qry' && z = 'explorer')(x, y, z)."
        "(this.vPosition, this.count, 'ack', this.role)@(id = x).0",
        attrs=attrs,
    )
    from abcwb.syntax import FALSE

    base = {"state": Name("move"), "collision": FALSE, "batteryLevel": Int(100)}
    env1 = AttributeEnv.of({
        **base, "id": Int(1), "role": Name("rescuer"), "state": Name("stop"),
        "count": Int(3), "vPosition": Name("vp"),
    })
    env2 = AttributeEnv.of({**base, "id": Int(2), "role": Name("explorer")})
    env3 = AttributeEnv.of({**base, "id": Int(3), "role": Name("charger")})
    env4 = AttributeEnv.of({**base, "id": Int(4), "role": Name("charger")})
    from abcwb.syntax import Call

    r1 = Comp(env1, Par(answer, walk))
    r2 = Comp(env2, Par(Call("Explorer", ()), walk))
    rest = Sum(Call("Rescuer", ()), Call("Explorer", ()))
    r3 = Comp(env3, Par(rest, walk))
    r4 = Comp(env4, Par(rest, walk))
    return SysPar(SysPar(r1, r2), SysPar(r3, r4)), (r3, r4)


def test_query_step_rewrites_rescuer_and_spares_the_rest(robotics):
    s, (r3, r4) = _mid_run_system(robotics)
    u = Universe.for_program(robotics)
    want_vals = (Int(2), Name("qry"), Name("explorer"))
    hits = [
        (lab, succ)
        for lab, succ in system_steps(s, robotics.defs, u, {})
        if isinstance(lab, SOut) and lab.values == want_vals
    ]
    assert len(hits) == 1
    _, succ = hits[0]
    got = list(comps(succ))
    expect_cont = parse_process(
        "(this.vPosition, this.count, 'ack', this.role)@(id = 2).0",
        attrs=robotics.attrs,
    )
    walk = parse_process("<this.collision = tt>RandWalk()", attrs=robotics.attrs)
    assert got[0].proc == Par(expect_cont, walk)  # answered, x bound to 2
    assert got[0].env.get("id") == Int(1)
    assert got[2] == r3 and got[3] == r4  # bystanders untouched


# -- example systems ---------------------------------------------------------


def _full_lts(prog):
    return build_lts(prog.main, prog.defs, Universe.for_program(prog))


def test_channel_payloads_stay_in_their_branch(channels):
    lts = _full_lts(channels)
    assert not lts.truncated
    got_a, got_b = set(), set()
    for s in lts.states:
        for c in comps(s):
            for attr, bucket in (("gotA", got_a), ("gotB", got_b)):
                v = c.env.get(attr)
                if isinstance(v, Name):
                    bucket.add(v.atom)
    assert got_a <= {"none", "c"} and "c" in got_a
    assert got_b <= {"none", "d"} and "d" in got_b


def test_group_message_reaches_one_or_both(groups):
    lts = _full_lts(groups)
    assert not lts.truncated
    counts = set()
    has_succ = {src for src, _, _ in lts.transitions}
    for i, s in enumerate(lts.states):
        members = list(comps(s))
        n = sum(1 for c in members if c.env.get("got") == Name("msg"))
        counts.add(n)
        # once everything settles, the late joiner can only hold the
        # message if the early member got it too (same broadcast)
        if i not in has_succ and members[2].env.get("got") == Name("msg"):
            assert members[1].env.get("got") == Name("msg")
    assert {0, 1, 2} <= counts


def test_pubsub_only_matching_subscriber_advances(pubsub):
    from abcwb.syntax import UNDEFINED

    lts = _full_lts(pubsub)
    assert not lts.truncated
    delivered = False
    for s in lts.states:
        for c in comps(s):
            if c.env.get("subscription") == Name("t2"):
                assert c.env.get("got") is UNDEFINED
            if c.env.get("subscription") == Name("t1") and c.env.get("got") == Name("item1"):
                delivered = True
    assert delivered


def test_adaptation_message_taken_or_missed(adaptation):
    from abcwb.syntax import UNDEFINED

    lts = _full_lts(adaptation)
    assert not lts.truncated
    terminal = [
        i for i, _ in enumerate(lts.states)
        if not any(src == i for src, _, _ in lts.transitions)
    ]
    # in some runs the raised bound let the message in, in others not
    taken = any(
        any(c.env.get("seen") == Name("msg") for c in comps(lts.states[i]))
        for i in terminal
    )
    missed = any(
        all(c.env.get("seen") is UNDEFINED for c in comps(lts.states[i]))
        for i in terminal
    )
    assert taken and missed


# -- interned || nodes and their memoised steps ------------------------------


def _differential_systems():
    """(system, defs, universe, max_states) for the differential tests:
    corpus systems and encoded broadcast-pi terms."""
    for name, max_states in (
        ("robotics.abc", 300), ("pool.abc", 10_000),
        ("channels.abc", 10_000), ("pubsub.abc", 10_000),
    ):
        prog = load_corpus(name)
        yield prog.main, prog.defs, Universe.for_program(prog), max_states
    for seed in range(300):
        sys, defs = encode(gen_term(random.Random(seed), 4))
        yield sys, defs, Universe.for_systems([sys], defs), 60


def test_steps_and_deliveries_match_the_oracle_that_builds_every_node_anew():
    # the library shares one memo across a walk; the oracle gets a fresh
    # memo for every state and builds every || and ! node anew
    for sys, defs, universe, max_states in _differential_systems():
        states = build_lts(sys, defs, universe, max_states=max_states).states
        memo = {}
        for s in states:
            got = system_steps(s, defs, universe, memo)
            want = step_oracle.system_steps(s, defs, universe, {})
            assert [lab for lab, _ in got] == [lab for lab, _ in want], s
            assert [canonicalize(t) for _, t in got] == [canonicalize(t) for _, t in want], s
            # every message a state sends, offered to the state itself
            for msg in dict.fromkeys((lab.pred, lab.values) for lab, _ in got if lab is not TAU):
                assert sys_deliver(s, *msg, defs, memo) == step_oracle.sys_deliver(
                    s, *msg, defs, {}), (s, msg)


def _robotics_walk(max_states=300):
    prog = load_corpus("robotics.abc")
    universe = Universe.for_program(prog)
    walk = Walk([prog.main], prog.defs, universe, repl_bound=2, max_states=max_states)
    walk.step()
    return walk


def test_the_same_operands_give_the_same_par_node():
    walk = _robotics_walk()
    defs, universe, memo = walk.defs, walk.universe, walk.memo
    joins = {}  # every node checked here stays alive in the memo

    def check(sys):
        for p in spine(sys):
            if type(p) is SysPar:
                assert joins.setdefault((id(p.left), id(p.right)), p) is p

    delivered = 0
    for s in walk.states:
        check(s)
        steps = system_steps(s, defs, universe, memo)
        for _, t in steps:
            check(t)
        for msg in dict.fromkeys((lab.pred, lab.values) for lab, _ in steps if lab is not TAU):
            outcomes = sys_deliver(s, *msg, defs, memo)
            assert all(map(is_, outcomes, sys_deliver(s, *msg, defs, memo)))
            for t in outcomes:
                check(t)
                delivered += t is not s
    assert delivered and len(joins) > len(walk.states)


def test_every_interned_node_holds_the_operands_it_was_asked_for(monkeypatch):
    join = system._join

    def checked(left, right, memo):
        node = join(left, right, memo)
        assert node.left is left and node.right is right
        return node

    monkeypatch.setattr(system, "_join", checked)
    _robotics_walk()
    prog = load_corpus("pool.abc")
    build_lts(prog.main, prog.defs, Universe.for_program(prog))
    # operands dropped and rebuilt: the table holds the old ones, so no
    # new operand can take an old one's id while its entry lives
    memo = {}
    for k in range(50):
        left = Comp(AttributeEnv.of({"a": Int(k)}), NIL)
        right = Comp(AttributeEnv.of({"b": Int(k)}), NIL)
        checked(left, right, memo)
        del left, right
        gc.collect()


def test_a_dropped_node_lends_its_steps_to_no_other():
    # the steps of a || node are kept under the node itself: a copy that
    # is dropped and collected must not hand its steps on to a later node
    # built where it lay
    walk = _robotics_walk(50)
    defs, universe, memo = walk.defs, walk.universe, {}
    for s in walk.states:
        copy = SysPar(s.left, s.right)
        assert system_steps(copy, defs, universe, memo) == system_steps(s, defs, universe, {})
        del copy
        gc.collect()


def test_a_robotics_walk_builds_few_par_nodes(robotics, monkeypatch):
    made = Counter()
    init, steps = SysPar.__init__, system._steps

    def counting_init(self, *args):
        made["||"] += 1
        init(self, *args)

    def counting_steps(*args):
        made["steps"] += 1
        return steps(*args)

    monkeypatch.setattr(SysPar, "__init__", counting_init)
    monkeypatch.setattr(system, "_steps", counting_steps)
    lts = build_lts(robotics.main, robotics.defs, Universe.for_program(robotics), repl_bound=2)
    assert (len(lts.states), len(lts.transitions)) == (2750, 14100)
    # 23,250 nodes and 13,750 calls before || nodes were interned and their
    # steps kept; 3,023 and 8,800 when this was written
    assert made["||"] <= 3100 and made["steps"] <= 8800, made
