"""Command-line behavior: exit codes, reports, reproducibility."""

import os
import re
import subprocess
import sys

import pytest

from abcwb.cli import _parse_value, main
from abcwb.attributes import Universe, fingerprint
from abcwb.parser import parse_process, parse_program
from abcwb.syntax import Int, Name, SysPar, TupleV, pretty_system

from conftest import cli_env


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def path(corpus_dir, name):
    return str(corpus_dir / name)


def test_parse_prints_the_system(corpus_dir, capsys):
    code, out, _ = run(["parse", path(corpus_dir, "pubsub.abc")], capsys)
    assert code == 0
    assert "subscription" in out


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = run(["parse", "no-such.abc"], capsys)
    assert code == 3 and "no such file" in err


def test_syntax_error_is_reported_with_position(tmp_path, capsys):
    bad = tmp_path / "bad.abc"
    bad.write_text("attrs: a\n\nsystem:\n  {a := }: 0\n")
    code, _, err = run(["parse", str(bad)], capsys)
    assert code == 3
    assert "4:" in err  # line number of the offending token


@pytest.mark.parametrize("cmd", ["explore", "step", "barbs", "trace"])
def test_unguarded_recursion_is_a_parse_error(tmp_path, capsys, cmd):
    # stepping the definition would unfold the call forever
    bad = tmp_path / "loop.abc"
    bad.write_text("def A() = (1)@(tt).0 | A()\nsystem:\n  {}: A()\n")
    code, out, err = run([cmd, str(bad)], capsys)
    assert code == 3 and out == ""
    assert "1:5: definition 'A' can call itself" in err


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main([])
    capsys.readouterr()
    assert e.value.code == 3


@pytest.mark.parametrize("cmd", ["step", "explore", "trace", "bisim", "reach"])
def test_negative_repl_bound_is_a_usage_error(corpus_dir, capsys, cmd):
    # a negative fuel never runs out: replication would be unbounded
    pool = path(corpus_dir, "pool.abc")
    extra = {"bisim": [pool], "reach": ["role='x'"]}.get(cmd, [])
    code, out, err = run([cmd, pool, *extra, "--repl-bound", "-1"], capsys)
    assert code == 3 and out == ""
    assert "--repl-bound: must not be negative: -1" in err


@pytest.mark.parametrize("cmd, flag", [
    ("trace", "--steps"),
    ("explore", "--max-depth"),
    ("explore", "--max-states"),
    ("reach", "--max-depth"),
    ("reach", "--max-states"),
    ("bisim", "--max-states"),
    ("check-encoding", "--depth"),
])
def test_negative_bound_is_a_usage_error(corpus_dir, capsys, cmd, flag):
    # before, ``trace --steps -3`` printed only the seed line and exited 0
    pool = path(corpus_dir, "pool.abc")
    args = {
        "bisim": [pool, pool],
        "reach": [pool, "role='x'"],
        "check-encoding": [path(corpus_dir, "bpi/t01.bpi")],
    }.get(cmd, [pool])
    code, out, err = run([cmd, *args, flag, "-1"], capsys)
    assert code == 3 and out == ""
    assert f"{flag}: must not be negative: -1" in err


def test_step_is_deterministic(corpus_dir, capsys):
    argv = ["--seed", "7", "step", path(corpus_dir, "robotics.abc")]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "# seed 7" in out1


def test_explore_is_deterministic(corpus_dir, capsys):
    argv = ["explore", path(corpus_dir, "groups.abc"), "--format", "json"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2


def test_explore_text_and_json_agree_on_size(corpus_dir, capsys):
    import json

    _, text, _ = run(["explore", path(corpus_dir, "channels.abc")], capsys)
    _, blob, _ = run(
        ["explore", path(corpus_dir, "channels.abc"), "--format", "json"], capsys
    )
    data = json.loads(blob)
    assert f"states: {len(data['states'])}" in text


def test_trace_echoes_seed(corpus_dir, capsys):
    code, out, _ = run(
        ["--seed", "3", "trace", path(corpus_dir, "adaptation.abc")], capsys
    )
    assert code == 0 and "# seed 3" in out


def test_bisim_with_itself_is_zero(corpus_dir, capsys):
    f = path(corpus_dir, "channels.abc")
    code, out, _ = run(["bisim", f, f], capsys)
    assert code == 0
    assert "bisimilar" in out and "not" not in out.splitlines()[-1]


def test_bisim_distinct_is_one(corpus_dir, capsys):
    code, out, _ = run(
        ["bisim", path(corpus_dir, "channels.abc"), path(corpus_dir, "pubsub.abc")],
        capsys,
    )
    assert code == 1
    assert "not" in out


def test_reach_hit_prints_witness(corpus_dir, capsys):
    code, out, _ = run(
        ["reach", path(corpus_dir, "groups.abc"), "got='msg'"], capsys
    )
    assert code == 0
    assert "witness trace" in out


def test_reach_miss_on_exhausted_space(corpus_dir, capsys):
    code, out, _ = run(
        ["reach", path(corpus_dir, "channels.abc"), "gotA='d'"], capsys
    )
    assert code == 1
    assert "not reachable" in out


@pytest.mark.parametrize("query", ["noequals", "=1", "role="])
def test_reach_refuses_a_malformed_query(corpus_dir, capsys, query):
    code, out, err = run(["reach", path(corpus_dir, "channels.abc"), query], capsys)
    assert code == 3 and out == ""
    assert "query must look like attr=value" in err


def test_reach_takes_an_empty_name_literal(corpus_dir, capsys):
    code, out, _ = run(["reach", path(corpus_dir, "channels.abc"), "gotA=''"], capsys)
    assert code == 1 and "not reachable" in out


# and other text that is no value
@pytest.mark.parametrize("value", ["'", "'x", "x'", "<1, 2", "1 2", "x-y", "'_n0'"])
def test_reach_refuses_an_unmatched_quote(corpus_dir, capsys, value):
    code, out, err = run(["reach", path(corpus_dir, "channels.abc"), f"gotA={value}"], capsys)
    assert code == 3 and out == ""
    assert "query must look like attr=value" in err and value in err


def test_reach_reads_a_quoted_value_as_a_name():
    assert _parse_value("''") == Name("")
    assert _parse_value("'d'") == Name("d")
    assert [_parse_value(v) for v in ("'", "'x", "x'")] == [None, None, None]
    assert _parse_value("<'d', <1>>") == TupleV((Name("d"), TupleV((Int(1),))))


@pytest.mark.parametrize("query, code", [
    ("on=tt", 0), ("on=ff", 1),
    ("off=ff", 0),
    ("pos=-2", 0), ("pos=2", 1),
    ("who=bob", 0), ("who='bob'", 0), ("who=ann", 1),
    ("at=<1, 2>", 0), ("at=<2, 1>", 1),
])
def test_reach_reads_booleans_integers_and_bare_names(tmp_path, capsys, query, code):
    f = tmp_path / "values.abc"
    f.write_text("attrs: on, off, pos, who, at\nsystem:\n"
                 "  {on := tt, off := ff, pos := -2, who := 'bob', at := <1, 2>}: 0\n")
    got, out, _ = run(["reach", str(f), query], capsys)
    assert got == code
    assert ("reached at state 0" if code == 0 else "not reachable") in out


def test_reach_miss_under_truncation_is_inconclusive(corpus_dir, capsys):
    code, out, _ = run(
        ["reach", path(corpus_dir, "robotics.abc"), "role='nobody'",
         "--max-states", "5"],
        capsys,
    )
    assert code == 2
    assert "within bounds" in out


def test_encode_golden_send(tmp_path, capsys):
    f = tmp_path / "send.bpi"
    f.write_text("a<v>.nil\n")
    code, out, _ = run(["encode", str(f)], capsys)
    assert code == 0
    assert "('a', 'v')@('a' = 'a').0" in out


def test_encode_gives_each_input_its_own_fresh_name(tmp_path, capsys):
    # two equal components translate apart: a correspondence check shares
    # component translations, encode must not
    f = tmp_path / "twins.bpi"
    f.write_text("a(x).b<x>.nil | a(x).b<x>.nil | a<v>.nil\n")
    code, out, _ = run(["encode", str(f)], capsys)
    assert code == 0
    assert out == (
        "system:\n"
        "  ({}: (_f0 = 'a')(_f0, x).('b', x)@('b' = 'b').0 || "
        "{}: (_f1 = 'a')(_f1, x).('b', x)@('b' = 'b').0) || {}: ('a', 'v')@('a' = 'a').0\n"
    )


def test_check_encoding_ok(corpus_dir, capsys):
    code, out, _ = run(
        ["check-encoding", str(corpus_dir / "bpi" / "t10.bpi")], capsys
    )
    assert code == 0
    assert "step bijection: ok" in out


def test_check_encoding_extrudes_a_name_an_input_binds(tmp_path, capsys):
    # the receiver binds x too; the extruded x keeps its name on both sides
    f = tmp_path / "term.bpi"
    f.write_text("nu x (a<x>.nil) | a(x).b<x>.nil\n")
    code, out, _ = run(["check-encoding", str(f)], capsys)
    assert code == 0
    assert "step bijection: ok" in out and "FAIL" not in out


@pytest.mark.parametrize("cmd", ["encode", "check-encoding"])
@pytest.mark.parametrize("text, message", [
    pytest.param("a(_f0).b<_f0, c>.nil | a<c>.nil", "1:3: identifier '_f0' is reserved",
                 id="a(_f0).b<_f0, c>.nil | a<c>.nil-identifier '_f0' is reserved"),
    ("a(x).nu k x<k>.nil", "restriction under a prefix has no image"),
    ("rec A(x, x). x<x>.nil @ (a, b)", "1:1: rec A: parameters must be distinct"),
])
def test_encoding_refuses_a_term_with_exit_3(tmp_path, capsys, cmd, text, message):
    f = tmp_path / "term.bpi"
    f.write_text(text + "\n")
    code, out, err = run([cmd, str(f)], capsys)
    assert code == 3 and out == ""
    assert err.startswith(f"error: {f}: {message}")


def test_a_repeated_parameter_is_refused(tmp_path, capsys):
    # one argument would be lost: A(1, 2) would send 2
    f = tmp_path / "dup.abc"
    f.write_text("def A(x, x) = (x)@(tt).0\nsystem:\n  {}: A(1, 2)\n")
    code, out, err = run(["explore", str(f)], capsys)
    assert code == 3 and out == ""
    assert err == f"error: {f}: 1:5: parameters of 'A' must be pairwise distinct\n"


DEEP = 5_000
DEEP_COMPONENTS = "system:\n  " + " || ".join(["{}: 0"] * DEEP) + "\n"


@pytest.mark.parametrize("argv, name, text", [
    pytest.param(["parse"], "deep.abc", "system:\n  {}: " + "(1)@(tt)." * DEEP + "0\n",
                 id="parse-prefixes"),
    pytest.param(["explore"], "deep.abc", DEEP_COMPONENTS, id="explore-components"),
    pytest.param(["reach", "a=1"], "deep.abc", DEEP_COMPONENTS, id="reach-components"),
    pytest.param(["encode"], "deep.bpi", "a<v>." * DEEP + "nil\n", id="encode-sends"),
])
def test_a_term_nested_too_deeply_exceeds_a_resource_bound(tmp_path, capsys, argv, name, text):
    # parsing, stepping and printing recurse along the term
    f = tmp_path / name
    f.write_text(text)
    code, out, err = run([argv[0], str(f), *argv[1:]], capsys)
    assert code == 2 and out == ""
    assert err == "error: resource bound exceeded: the term nests too deeply\n"


def test_an_integer_past_the_digit_limit_is_refused(tmp_path, capsys):
    # Python refuses to read an integer literal of more than 4300 digits
    f = tmp_path / "huge.abc"
    f.write_text(f"attrs: a\nsystem:\n  {{a := {'9' * 5000}}}: 0\n")
    code, out, err = run(["parse", str(f)], capsys)
    assert code == 3 and out == ""
    assert err.startswith(f"error: {f}: ") and "Traceback" not in err


def test_check_encoding_rejects_garbage(tmp_path, capsys):
    f = tmp_path / "bad.bpi"
    f.write_text("a<v.nil\n")
    code, _, err = run(["check-encoding", str(f)], capsys)
    assert code == 3 and "error" in err


@pytest.mark.parametrize("cmd", [["explore"], ["reach", "role='helper'"]])
def test_closed_stdout_exits_quietly(corpus_dir, cmd):
    # like ``abcwb explore robotics.abc | head -4``: the reader is gone
    # before the report is written
    argv = [cmd[0], path(corpus_dir, "robotics.abc"), *cmd[1:], "--max-states", "50"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "abcwb.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=cli_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 0
    assert done.stderr == b""


@pytest.mark.parametrize("bound, code", [(1, 2), (3, 2), (10, 2), (50, 2), (2000, 0)])
def test_bisim_on_a_truncated_space_is_inconclusive(corpus_dir, tmp_path, capsys, bound, code):
    # pubsub against itself with its outer || operands swapped: bisimilar
    # on the full space (2000 states is the default bound)
    prog = parse_program((corpus_dir / "pubsub.abc").read_text())
    swapped = tmp_path / "swapped.abc"
    main_ = SysPar(prog.main.right, prog.main.left)
    swapped.write_text(f"attrs: {', '.join(sorted(prog.attrs))}\n\nsystem:\n  {pretty_system(main_)}\n")
    argv = ["bisim", path(corpus_dir, "pubsub.abc"), str(swapped), "--max-states", str(bound)]
    got, out, _ = run(argv, capsys)
    assert got == code
    if code == 2:
        assert "inconclusive" in out and "state budget exhausted" in out
    else:
        assert "strongly bisimilar\n" in out


def _abc(tmp_path, name, defs, system):
    f = tmp_path / name
    f.write_text(f"attrs: a\n{defs}\nsystem:\n  {system}\n")
    return str(f)


def test_bisim_universe_covers_definition_bodies(tmp_path, capsys):
    # S sends on a = 5: no component has a = 5, but an input from outside
    # could, so S's send is not the silent ff send of the right side
    called = _abc(tmp_path, "left.abc", "def S() = ()@(a = 5).0", "{a := 0}: S()")
    inlined = _abc(tmp_path, "inlined.abc", "", "{a := 0}: ()@(a = 5).0")
    silent = _abc(tmp_path, "right.abc", "", "{a := 0}: ()@(ff).0")
    assert run(["bisim", inlined, silent], capsys)[0] == 1
    code, out, _ = run(["bisim", called, silent], capsys)
    assert code == 1 and "not strongly bisimilar" in out


def test_bisim_refuses_a_name_defined_differently_on_each_side(tmp_path, capsys):
    left = _abc(tmp_path, "left.abc", "def P() = ()@(tt).0", "{a := 0}: P()")
    right = _abc(tmp_path, "right.abc", "def P() = ()@(ff).0", "{a := 0}: P()")
    same = _abc(tmp_path, "same.abc", "def P() = ()@(tt).0", "{a := 0}: P()")
    code, out, err = run(["bisim", left, right], capsys)
    assert code == 3 and out == "" and "P" in err
    # the same definition on both sides is one definition
    assert run(["bisim", left, same], capsys)[0] == 0


def test_extruded_names_are_numbered_in_the_order_they_are_sent(tmp_path, capsys):
    # the second restriction is sent first
    crossed = _abc(tmp_path, "crossed.abc", "", "nu a (nu b ({}: ('b', 'a')@(tt).0))")
    straight = _abc(tmp_path, "straight.abc", "", "nu a (nu b ({}: ('a', 'b')@(tt).0))")
    code, out, _ = run(["explore", crossed], capsys)
    assert code == 0 and "vals=('_n0', '_n1')" in out
    code, out, _ = run(["bisim", crossed, straight], capsys)
    assert code == 0 and "strongly bisimilar" in out.splitlines()


def test_a_placeholder_skips_a_name_extruded_earlier(tmp_path, capsys):
    # a is free once it is sent, so b's placeholder must not merge with it:
    # the second sends differ in which name comes first
    old_first = _abc(tmp_path, "old.abc", "",
                     "nu a (nu b ({}: ('a')@(tt).('a', 'b')@(tt).0))")
    new_first = _abc(tmp_path, "new.abc", "",
                     "nu a (nu b ({}: ('a')@(tt).('b', 'a')@(tt).0))")
    code, out, _ = run(["explore", old_first], capsys)
    assert code == 0 and re.search(r"--out nu _n1 fp=.* vals=\('_n0', '_n1'\)--", out)
    code, out, _ = run(["bisim", old_first, new_first], capsys)
    assert code == 1 and "not strongly bisimilar" in out.splitlines()


def test_names_extruded_in_one_value_are_numbered_by_position(tmp_path, capsys):
    # alpha-variants: the tuple sends the second restriction first
    crossed = _abc(tmp_path, "crossed.abc", "", "nu a (nu b ({}: (<'b', 'a'>)@(tt).0))")
    straight = _abc(tmp_path, "straight.abc", "", "nu a (nu b ({}: (<'a', 'b'>)@(tt).0))")
    code, out, _ = run(["bisim", crossed, straight], capsys)
    assert code == 0 and "strongly bisimilar" in out.splitlines()


def test_rand_needs_a_nonempty_range(tmp_path, capsys):
    bad = _abc(tmp_path, "bad.abc", "", "{a := 0}: (rand(0))@(tt).0")
    code, _, err = run(["explore", bad], capsys)
    assert code == 3 and "rand(0)" in err
    ok = _abc(tmp_path, "ok.abc", "", "{a := 0}: (rand(1))@(tt).0")
    assert run(["explore", ok], capsys)[0] == 0


def test_barbs_draws_under_the_run_seed(tmp_path, capsys):
    # ``rand(8)`` is a choice: at every seed ``step`` shows all eight
    # sends and ``barbs`` lists the barb of each
    prog = _abc(tmp_path, "draw.abc", "", "{x := 0}: [x := rand(8)]()@(a = this.x).0")
    universe = Universe.for_program(parse_program(open(prog).read()))
    keys = sorted(
        (fingerprint(parse_process(f"<a = {k}>0", ("a",)).pred, universe), 0)
        for k in range(8)
    )
    want = "".join(f"barb: arity {arity}, predicate key {key}\n" for key, arity in keys)
    for seed in range(4):
        code, out, _ = run(["--seed", str(seed), "step", prog], capsys)
        assert code == 0
        sent = re.findall(r"@\(a = (\d)\)\n", out)
        assert sorted(sent) == [str(k) for k in range(8)], seed
        assert run(["--seed", str(seed), "barbs", prog], capsys)[:2] == (0, want), seed


@pytest.mark.parametrize("text, pos", [
    ("('m')@(a = rand(1)).0", "4:24"),
    ("(x = rand(2))(x).0", "4:18"),
    ("<a + rand(2) = 1>0", "4:18"),
])
def test_rand_in_a_predicate_is_refused(tmp_path, capsys, text, pos):
    # a predicate is decided, not run: it has no choice to make
    prog = _abc(tmp_path, "pred.abc", "", f"{{a := 0}}: {text}")
    code, out, err = run(["explore", prog], capsys)
    assert code == 3 and out == ""
    assert f"{pos}: rand is not allowed in a predicate" in err


def test_rand_choices_do_not_break_congruence(tmp_path, capsys):
    # the same two components in either order: bisimilar at every seed
    draw, idle = "{x := 0}: [x := rand(8)](this.x)@(tt).0", "{x := 1}: 0"
    left = _abc(tmp_path, "left.abc", "", f"{draw} || {idle}")
    right = _abc(tmp_path, "right.abc", "", f"{idle} || {draw}")
    for seed in range(4):
        code, out, _ = run(["--seed", str(seed), "bisim", left, right], capsys)
        assert (code, out) == (0, f"# seed {seed}\nstrongly bisimilar\n"), seed


def test_reach_finds_a_state_behind_one_rand_choice(tmp_path, capsys):
    prog = _abc(
        tmp_path, "hit.abc", "",
        "{x := 0, role := 'idle'}: "
        "[x := rand(8)]()@(ff).<this.x = 7>[role := 'hit']()@(ff).0",
    )
    for seed in range(10):
        code, out, _ = run(["--seed", str(seed), "reach", prog, "role='hit'"], capsys)
        assert code == 0 and "reached at state" in out, seed


def test_explore_output_differs_only_in_the_seed_line(corpus_dir, capsys):
    robotics = path(corpus_dir, "robotics.abc")
    first, out0, _ = run(["--seed", "0", "explore", robotics], capsys)
    second, out3, _ = run(["--seed", "3", "explore", robotics], capsys)
    assert first == second == 0
    assert out0.startswith("seed: 0\n") and out3.startswith("seed: 3\n")
    assert out0.split("\n", 1)[1] == out3.split("\n", 1)[1]
