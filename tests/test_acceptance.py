"""End-to-end acceptance checks.

Each test covers one advertised guarantee of the workbench and prints a
single PASS/FAIL line (visible with ``pytest -s`` or in failure output),
so the whole contract can be audited at a glance.
"""

import random
import subprocess
import sys
import time

from abcwb.attributes import Universe, fingerprint, is_ff, restrict_predicate, satisfies
from abcwb.bpi import (
    check_barb_correspondence,
    check_correspondence,
    check_divergence_correspondence,
    check_name_invariance,
    parse_bpi,
)
from abcwb.component import deliver, output_steps, prefixes
from abcwb.equivalence import bisimilar
from abcwb.explorer import build_lts, env_has, reachable_matching, witness_path
from abcwb.parser import parse_process, parse_system
from abcwb.syntax import (
    FF_,
    Int,
    Name,
    Par,
    TupleV,
    UNDEFINED,
    free_names,
    pretty_system,
)

from astgen import ATTRS, NAMES, gen_env, gen_pred, gen_system, gen_value
from conftest import cli_env
from contexts import draw_context, plug
from test_attributes import _subst_in_env
from test_component import ppred
from test_system import _mid_run_system, comps


def report(n, desc, ok):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {n} - {desc}")
    assert ok, f"criterion {n}: {desc}"


def _component(prog, ident):
    return next(c for c in comps(prog.main) if c.env.get("id") == Int(ident))


def test_criterion_01_rescuer_golden_sends(robotics):
    c = _component(robotics, 1)
    u = Universe.for_program(robotics)
    steps = output_steps(prefixes(c.env, c.proc, robotics.defs))
    # ``RandWalk`` adds one silent send per ``rand(4)`` choice of direction
    golden = [s for s in steps if s[2].get("direction") is UNDEFINED]
    directions = [(pred, values, env2) for pred, values, env2, _ in steps
                  if env2.get("direction") is not UNDEFINED]
    ok = len(golden) == 2 and directions == [
        (FF_, (), c.env.updated([("direction", Int(k))])) for k in range(4)
    ]
    silent = [s for s in golden if s[1] == ()]
    query = [s for s in golden if s[1] != ()]
    ok = ok and len(silent) == 1 and len(query) == 1
    if ok:
        pred, _, env2, _ = silent[0]
        ok = (
            is_ff(pred, u)
            and env2.get("state") == Name("stop")
            and env2.get("count") == Int(3)
            and env2.get("vPosition") == TupleV((Int(3), Int(4)))
            and env2.get("role") == Name("rescuer")
        )
    if ok:
        pred, values, _, _ = query[0]
        want = ppred("role = 'rescuer' || role = 'helping'", attrs=robotics.attrs)
        ok = values == (Int(1), Name("qry"), Name("explorer")) and fingerprint(
            pred, u
        ) == fingerprint(want, u)
    report(1, "rescuer component has exactly the two golden sends, besides "
              "the four direction choices", ok)


def test_criterion_02_explorer_golden_discard(robotics):
    c = _component(robotics, 2)
    pred = ppred("role = 'explorer'", attrs=robotics.attrs)
    out = deliver(prefixes(c.env, c.proc, robotics.defs), pred, (Name("info"),))
    ok = out == [] and c == _component(robotics, 2)
    report(2, "explorer robot discards the info message unchanged", ok)


def test_criterion_03_four_robot_query_step(robotics):
    from abcwb.system import SOut, system_steps

    s, (r3, r4) = _mid_run_system(robotics)
    u = Universe.for_program(robotics)
    want_vals = (Int(2), Name("qry"), Name("explorer"))
    hits = [
        (lab, succ)
        for lab, succ in system_steps(s, robotics.defs, u, {})
        if isinstance(lab, SOut) and lab.values == want_vals
    ]
    ok = len(hits) == 1
    if ok:
        got = list(comps(hits[0][1]))
        cont = parse_process(
            "(this.vPosition, this.count, 'ack', this.role)@(id = 2).0",
            attrs=robotics.attrs,
        )
        walk = parse_process("<this.collision = tt>RandWalk()", attrs=robotics.attrs)
        ok = got[0].proc == Par(cont, walk) and got[2] == r3 and got[3] == r4
    report(3, "system query step instantiates the rescuer, spares bystanders", ok)


def test_criterion_04_restriction_invariance():
    rng = random.Random(77)
    failures = 0
    for _ in range(10_000):
        pi = gen_pred(rng, frozenset(), depth=3)
        x = rng.choice(NAMES + ("zz",))
        g = gen_env(rng)
        occurs = any(x in free_names(v) for _, v in g.bindings)
        v = Name("_fresh") if occurs else gen_value(rng)
        restricted = restrict_predicate(pi, x)
        if satisfies(g, restricted) != satisfies(_subst_in_env(g, x, v), restricted):
            failures += 1
    report(4, "10^4 restriction-satisfaction invariance trials, 0 failures", failures == 0)


def test_criterion_05_encoding_correspondence(corpus_dir):
    files = sorted((corpus_dir / "bpi").glob("*.bpi"))
    t0 = time.monotonic()
    ok = len(files) >= 20
    for f in files:
        term = parse_bpi(f.read_text())
        res = check_correspondence(term, depth=6)
        ok = (
            ok
            and res.ok
            and check_barb_correspondence(term)
            and check_divergence_correspondence(term)
            and check_name_invariance(term)
        )
        if not ok:
            break
    elapsed = time.monotonic() - t0
    report(5, f"encoding correspondence on {len(files)} terms in {elapsed:.1f}s", ok and elapsed < 60)


def test_criterion_06_channel_selectivity(channels):
    lts = build_lts(channels.main, channels.defs, Universe.for_program(channels))
    got_a, got_b = set(), set()
    for s in lts.states:
        for c in comps(s):
            for attr, bucket in (("gotA", got_a), ("gotB", got_b)):
                v = c.env.get(attr)
                if isinstance(v, Name):
                    bucket.add(v.atom)
    ok = (
        not lts.truncated
        and got_a <= {"none", "c"} and "c" in got_a
        and got_b <= {"none", "d"} and "d" in got_b
    )
    report(6, "payload c stays in the a-branch, d in the b-branch", ok)


def test_criterion_07_group_dynamics(groups):
    lts = build_lts(groups.main, groups.defs, Universe.for_program(groups))
    counts = set()
    for s in lts.states:
        n = sum(1 for c in comps(s) if c.env.get("got") == Name("msg"))
        counts.add(n)
    ok = not lts.truncated and {1, 2} <= counts
    report(7, "one and two receivers both occur across group interleavings", ok)


def test_criterion_08_pubsub_matching(pubsub):
    lts = build_lts(pubsub.main, pubsub.defs, Universe.for_program(pubsub))
    delivered, leaked = False, False
    for s in lts.states:
        for c in comps(s):
            if c.env.get("subscription") == Name("t2") and c.env.get("got") is not UNDEFINED:
                leaked = True
            if c.env.get("subscription") == Name("t1") and c.env.get("got") == Name("item1"):
                delivered = True
    ok = not lts.truncated and delivered and not leaked
    report(8, "only the matching subscriber takes the published item", ok)


def test_criterion_09_equivalence_sanity(robotics, groups, pubsub, channels, adaptation):
    s1 = parse_system("{a := 1}: ()@(ff).0", attrs=("a",))
    s2 = parse_system("{a := 1}: 0", attrs=("a",))
    u = Universe.for_systems([s1, s2])
    strong = bisimilar(s1, s2, {}, u, weak=False)
    weak = bisimilar(s1, s2, {}, u, weak=True)
    ok = (not strong.equivalent) and weak.equivalent

    for prog in (robotics, groups, pubsub, channels, adaptation):
        res = bisimilar(prog.main, prog.main, prog.defs, Universe.for_program(prog))
        ok = ok and res.equivalent

    pairs = [
        (s1, s2),
        (parse_system("{a := 1}: ('m')@(tt).0", attrs=("a",)),) * 2,
        (
            parse_system("{a := 1}: ('m')@(tt).0", attrs=("a",)),
            parse_system("{a := 1}: ('n')@(tt).0", attrs=("a",)),
        ),
    ]
    for p, q in pairs:
        uu = Universe.for_systems([p, q])
        if bisimilar(p, q, {}, uu, weak=False).equivalent:
            ok = ok and bisimilar(p, q, {}, uu, weak=True).equivalent

    # repl_bound=1 gives a context's bangs one copy each; the pair has none
    rng = random.Random(0)
    contexts = [draw_context(rng, u.values) for _ in range(100)]
    results = [
        bisimilar(plug(layers, s1), plug(layers, s2), {}, u, weak=True, repl_bound=1)
        for layers in contexts
    ]
    ok = ok and len(results) >= 100 and all(r.equivalent for r in results)
    report(9, "weak/strong split, reflexivity, inclusion, 100-context sample", ok)


def test_criterion_10_helper_reachable(robotics):
    lts = build_lts(
        robotics.main,
        robotics.defs,
        Universe.for_program(robotics),
        repl_bound=2,
        max_states=100_000,
    )
    hit = reachable_matching(lts, lambda s: env_has(s, "role", Name("helper")))
    ok = hit is not None
    trace_ok = False
    if ok:
        lines = witness_path(lts, hit)
        trace_ok = len(lines) >= 2 and lines[0].startswith("[")
    report(10, "a helper role is reachable with a replayable witness", ok and trace_ok)


def test_criterion_11_cli_determinism(corpus_dir):
    def run(argv):
        return subprocess.run(
            [sys.executable, "-m", "abcwb.cli", *argv],
            capture_output=True,
            check=True,
            env=cli_env(),
        ).stdout

    explore = ["explore", str(corpus_dir / "groups.abc"), "--format", "json"]
    step = ["--seed", "5", "step", str(corpus_dir / "robotics.abc")]
    ok = run(explore) == run(explore) and run(step) == run(step)
    report(11, "explore and seeded step runs are byte-identical", ok)


def test_criterion_12_round_trip(corpus_dir):
    from abcwb.parser import parse_program

    ok = True
    for path in sorted(corpus_dir.glob("*.abc")):
        prog = parse_program(path.read_text())
        ok = ok and parse_system(
            pretty_system(prog.main), prog.defs, attrs=prog.attrs
        ) == prog.main
    rng = random.Random(2024)
    for _ in range(1000):
        s = gen_system(rng)
        if parse_system(pretty_system(s), attrs=ATTRS) != s:
            ok = False
            break
    report(12, "pretty-print then parse is the identity on 10^3 random terms", ok)
