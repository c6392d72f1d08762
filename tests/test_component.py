"""Single-component semantics: sends, message delivery, discards."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from abcwb.attributes import (
    Universe,
    UndefinedClosure,
    UniverseTooLarge,
    close_predicate,
    fingerprint,
)
from abcwb.cli import main
from abcwb.component import deliver, output_steps, prefixes
from abcwb.parser import parse_process
from abcwb.syntax import (
    FF_,
    TT_,
    UNDEFINED,
    AttributeEnv,
    Call,
    In,
    Int,
    Name,
    Par,
    Process,
    Sum,
)

import fire_oracle
from astgen import VARS, gen_env, gen_expr, gen_pred, gen_proc, gen_value


def pp(text, attrs=(), scope=()):
    return parse_process(text, attrs=attrs, scope=scope)


def ppred(text, attrs=()):
    # a predicate on its own has no concrete-syntax production; borrow
    # the awareness guard's
    return parse_process(f"<{text}>0", attrs=attrs).pred


# -- the rescuer component: exactly two enabled sends ------------------------


def _robot1(robotics):
    # fish the component with id 1 out of the system parallel composition
    from abcwb.syntax import SysPar

    def comps(s):
        if isinstance(s, SysPar):
            yield from comps(s.left)
            yield from comps(s.right)
        else:
            yield s

    for c in comps(robotics.main):
        if c.env.get("id") == Int(1):
            return c
    raise AssertionError("no component with id 1")


def _golden_and_direction_sends(c, defs):
    """Robot 1's sends, split into the ones that leave ``direction`` unset
    (the two golden sends) and the ones that set it."""
    steps = output_steps(prefixes(c.env, c.proc, defs))
    golden = [s for s in steps if s[2].get("direction") is UNDEFINED]
    return golden, [s for s in steps if s not in golden]


def test_rescuer_has_exactly_two_sends(robotics):
    # besides them, ``RandWalk`` has one silent send per ``rand(4)`` choice
    c = _robot1(robotics)
    golden, directions = _golden_and_direction_sends(c, robotics.defs)
    assert len(golden) == 2
    assert [(pred, values, env2) for pred, values, env2, _ in directions] == [
        (FF_, (), c.env.updated([("direction", Int(k))])) for k in range(4)
    ]


def test_rescuer_silent_send_updates_state(robotics):
    c = _robot1(robotics)
    u = Universe.for_program(robotics)
    golden, _ = _golden_and_direction_sends(c, robotics.defs)
    silent = [s for s in golden if s[1] == ()]
    assert len(silent) == 1
    pred, _, env2, cont = silent[0]
    from abcwb.attributes import is_ff
    from abcwb.syntax import TupleV

    assert is_ff(pred, u)
    assert env2.get("state") == Name("stop")
    assert env2.get("count") == Int(3)
    assert env2.get("vPosition") == TupleV((Int(3), Int(4)))
    assert env2.get("role") == Name("rescuer")
    # the continuation is the query-answering input (inside the robot's
    # process parallel composition)
    def first_in(p):
        if isinstance(p, In):
            return p
        if isinstance(p, Par):
            return first_in(p.left) or first_in(p.right)
        return None

    q = first_in(cont)
    assert q is not None and len(q.vars) == 3


def test_rescuer_query_send_label(robotics):
    c = _robot1(robotics)
    u = Universe.for_program(robotics)
    steps = output_steps(prefixes(c.env, c.proc, robotics.defs))
    query = [s for s in steps if s[1] != ()]
    assert len(query) == 1
    pred, values, env2, _ = query[0]
    assert values == (Int(1), Name("qry"), Name("explorer"))
    want = ppred("role = 'rescuer' || role = 'helping'", attrs=robotics.attrs)
    assert fingerprint(pred, u) == fingerprint(want, u)
    assert env2 == c.env  # plain send: no update committed


# -- the golden discard ------------------------------------------------------


def test_explorer_discards_info_message(robotics):
    from abcwb.syntax import SysPar

    def comps(s):
        if isinstance(s, SysPar):
            yield from comps(s.left)
            yield from comps(s.right)
        else:
            yield s

    c = next(c for c in comps(robotics.main) if c.env.get("id") == Int(2))
    pred = ppred("role = 'explorer'", attrs=robotics.attrs)
    out = deliver(prefixes(c.env, c.proc, robotics.defs), pred, (Name("info"),))
    assert out == []
    # nothing about the component is touched on a discard: same term, same env
    assert c == next(x for x in comps(robotics.main) if x.env.get("id") == Int(2))


# -- acceptance and refusal mechanics ----------------------------------------


ENV = AttributeEnv.of({"a": Int(1), "role": Name("r")})
DEFS = {}


def test_receive_requires_both_predicates():
    proc = pp("(x = 'go')(x).0")
    ok_pred = ppred("a = 1", attrs=("a",))
    bad_pred = ppred("a = 2", attrs=("a",))
    assert len(deliver(prefixes(ENV, proc, DEFS), ok_pred, (Name("go"),))) == 1
    # receiver-side predicate fails
    assert deliver(prefixes(ENV, proc, DEFS), ok_pred, (Name("stop"),)) == []
    # sender-side predicate fails against the receiver environment
    assert deliver(prefixes(ENV, proc, DEFS), bad_pred, (Name("go"),)) == []


def test_arity_mismatch_discards():
    proc = pp("(tt)(x, y).0")
    tt = ppred("tt")
    assert deliver(prefixes(ENV, proc, DEFS), tt, (Int(1),)) == []
    assert len(deliver(prefixes(ENV, proc, DEFS), tt, (Int(1), Int(2)))) == 1


def test_sum_collects_both_branches():
    proc = pp("(tt)(x).('l')@(tt).0 + (tt)(x).('r')@(tt).0")
    out = deliver(prefixes(ENV, proc, DEFS), ppred("tt"), (Int(0),))
    assert len(out) == 2


def test_par_delivers_to_one_thread_per_outcome():
    proc = pp("(tt)(x).0 | (tt)(x).0")
    out = deliver(prefixes(ENV, proc, DEFS), ppred("tt"), (Int(0),))
    assert len(out) == 2
    for _, cont in out:
        # one side consumed, the other still waiting
        assert isinstance(cont, Par)
        assert isinstance(cont.left, In) != isinstance(cont.right, In)


def test_pending_update_commits_only_on_receive():
    proc = pp("[a := 9](tt)(x).0", attrs=("a",))
    ((env2, _),) = deliver(prefixes(ENV, proc, DEFS), ppred("tt"), (Int(0),))
    assert env2.get("a") == Int(9)
    assert deliver(prefixes(ENV, proc, DEFS), ppred("ff"), (Int(0),)) == []


def test_update_guarding_send_commits_with_it():
    proc = pp("[a := 9]('m')@(tt).0", attrs=("a",))
    ((_, values, env2, cont),) = output_steps(prefixes(ENV, proc, DEFS))
    assert env2.get("a") == Int(9)
    assert values == (Name("m"),)


def test_undefined_payload_disables_send():
    proc = pp("(missing)@(tt).0", attrs=("missing",))
    assert output_steps(prefixes(ENV, proc, DEFS)) == []


def test_deliver_total_and_exclusive_on_random_terms():
    """Every (component, message) pair yields a list of acceptance
    outcomes, each a fresh (environment, process) pair; an empty list is
    the discard."""
    rng = random.Random(404)
    tt = ppred("tt")
    for _ in range(500):
        env = gen_env(rng)
        proc = gen_proc(rng)
        vals = tuple(gen_value(rng) for _ in range(rng.randrange(3)))
        out = deliver(prefixes(env, proc, DEFS), tt, vals)
        assert isinstance(out, list)
        for got_env, got_proc in out:
            assert isinstance(got_env, AttributeEnv) and isinstance(got_proc, Process)


# -- rand is a choice ------------------------------------------------------


def test_rand_is_a_choice_of_every_value_below_its_bound():
    # one outcome per value, through arithmetic too, without repeats: the
    # second payload is 0 whichever value ``rand(2)`` takes
    proc = pp("[a := rand(3)](this.a + rand(2), rand(2) * 0)@(tt).0", attrs=("a",))
    got = output_steps(prefixes(ENV, proc, DEFS))
    assert [(env2.get("a"), values) for _, values, env2, _ in got] == [
        (Int(a), (Int(a + r), Int(0))) for a in range(3) for r in range(2)
    ]


RAND_SRC = """
attrs: a, b
def Q(p) = [b := rand(100)](p, rand(100))@(tt).0 + [b := rand(100)](tt)(x).0
system:
  {a := 0, b := 0}:
    ((Q(rand(100)) + [a := rand(100)](rand(100))@(tt).0)
     | ([a := rand(100)](tt)(x).0 + Q(rand(100))))
"""


def test_rand_outcomes_are_every_choice_on_small_bounds():
    """Updates, payloads and call arguments each fan out over every value,
    branch by branch, on both sides of ``+`` and ``|``."""
    from abcwb.parser import parse_program
    from abcwb.syntax import TT, Comp, pretty_system

    prog = parse_program(RAND_SRC.replace("100", "2"))
    c = prog.main
    left = "(Q(rand(2)) + [a := rand(2)](rand(2))@(tt).0)"
    right = "([a := rand(2)](tt)(x).0 + Q(rand(2)))"
    got = output_steps(prefixes(c.env, c.proc, prog.defs))
    assert all(pred == TT() for pred, _, _, _ in got)
    assert sorted(
        (tuple(str(v) for v in vals), pretty_system(Comp(env2, cont)))
        for _, vals, env2, cont in got
    ) == sorted(
        [((str(p), str(r)), f"{{a:=0, b:={b}}}: (0 | {right})")
         for p in range(2) for b in range(2) for r in range(2)]
        + [((str(r),), f"{{a:={a}, b:=0}}: (0 | {right})")
           for a in range(2) for r in range(2)]
        + [((str(p), str(r)), f"{{a:=0, b:={b}}}: ({left} | 0)")
           for p in range(2) for b in range(2) for r in range(2)]
    )
    got = deliver(prefixes(c.env, c.proc, prog.defs), TT(), (Name("m"),))
    # ``Q``'s argument does not reach its receive: each of its two
    # values gives the same outcome
    assert sorted(pretty_system(Comp(env2, cont)) for env2, cont in got) == sorted(
        [f"{{a:=0, b:={b}}}: (0 | {right})" for _ in range(2) for b in range(2)]
        + [f"{{a:={a}, b:=0}}: ({left} | 0)" for a in range(2)]
        + [f"{{a:=0, b:={b}}}: ({left} | 0)" for _ in range(2) for b in range(2)]
    )


def test_rand_fan_out_is_bounded(tmp_path, capsys):
    # about 2 * 10**6 sends: one component walk gives up past the budget
    from abcwb.parser import parse_program

    prog = parse_program(RAND_SRC)
    with pytest.raises(UniverseTooLarge):
        output_steps(prefixes(prog.main.env, prog.main.proc, prog.defs))
    f = tmp_path / "fan.abc"
    f.write_text(RAND_SRC)
    start = time.perf_counter()
    assert main(["step", str(f)]) == 2
    assert time.perf_counter() - start < 10
    assert "resource bound exceeded" in capsys.readouterr().err


# -- one prefix walk against the message-taking walk ---------------------------


def _outcome(steps):
    try:
        return steps()
    except UniverseTooLarge:
        return "UniverseTooLarge"


def _call(rng):
    return Call("D", tuple(gen_expr(rng, frozenset(), 1) for _ in range(2)))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_prefix_walk_matches_the_message_taking_walk(seed):
    """Sends and receives read off the one prefix walk are the old walk's
    outcomes, in the same order, on generated components with ``rand``
    updates, awareness, ``Par`` and calls, offered generated messages."""
    rng = random.Random(seed)
    params = tuple(VARS[:2])
    defs = {"D": (params, gen_proc(rng, frozenset(params)))}
    env, proc = gen_env(rng), gen_proc(rng)
    if rng.random() < 0.5:
        proc = (Sum if rng.random() < 0.5 else Par)(proc, _call(rng))
    assert _outcome(lambda: output_steps(prefixes(env, proc, defs))) == _outcome(
        lambda: fire_oracle.output_steps(env, proc, defs)
    )
    for _ in range(4):
        try:
            pred = close_predicate(gen_pred(rng, frozenset()), gen_env(rng))
        except UndefinedClosure:
            pred = TT_
        vals = tuple(gen_value(rng) for _ in range(rng.randrange(1, 3)))
        assert _outcome(lambda: deliver(prefixes(env, proc, defs), pred, vals)) == _outcome(
            lambda: fire_oracle.deliver(env, proc, pred, vals, defs)
        )
