"""Concrete syntax: tokenizing, parsing, diagnostics, round-trips."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from abcwb.attributes import eval_expr
from abcwb.explorer import build_lts, env_has
from abcwb.parser import ParseError, ResolveError, parse_process, parse_program, parse_system
from abcwb.syntax import (
    Arith,
    AttributeEnv,
    Attr,
    Aware,
    Bool,
    Cmp,
    Comp,
    In,
    Int,
    Lit,
    Name,
    NIL,
    Out,
    ThisAttr,
    TT_,
    TupleV,
    pretty_proc,
    pretty_system,
)

from astgen import ATTRS, gen_system


def test_output_prefix():
    p = parse_process("('m', 3)@(tt).0")
    assert p == Out((Lit(Name("m")), Lit(Int(3))), TT_, NIL)


def test_input_prefix_binds_variables():
    p = parse_process("(x = 'go')(x, y).(y)@(tt).0")
    assert isinstance(p, In)
    assert p.vars == ("x", "y")


def test_empty_output_is_allowed():
    p = parse_process("()@(ff).0")
    assert isinstance(p, Out) and p.exprs == ()


def test_awareness_vs_comparison():
    p = parse_process("<this.a = tt>0", attrs=("a",))
    assert p == Aware(Cmp("=", ThisAttr("a"), Lit(Bool(True))), NIL)


def test_tuple_values_parse():
    p = parse_process("(<1, 2>)@(tt).0")
    assert p == Out((Lit(TupleV((Int(1), Int(2)))),), TT_, NIL)


def test_nested_tuple_in_comparison():
    # '<' opens a tuple on the right of '=' but compares elsewhere
    p = parse_process("<this.a = <1, <2, 3>>>0", attrs=("a",))
    assert isinstance(p, Aware)
    assert p.pred.rhs == Lit(TupleV((Int(1), TupleV((Int(2), Int(3))))))


@pytest.mark.parametrize("text, value", [
    ("2 * 3 - 1", 5),
    ("1 + 2 * 3", 7),
    ("2 * 3 * 4 - 20", 4),
    ("5 - 2 - 1", 2),
    ("(1 + 2) * 3", 9),
])
def test_times_binds_tighter_than_plus_and_minus(text, value):
    upd = parse_process(f"[a := {text}]0", attrs=("a",))
    (_, e), = upd.assigns
    assert eval_expr(e, AttributeEnv()) == Int(value)


def test_an_update_with_mixed_arithmetic_reaches_its_value():
    prog = parse_program("attrs: a\nsystem:\n  {a := 0}: [a := 1 + 2 * 3]('v')@(tt).0\n")
    (_, e), = prog.main.proc.assigns
    assert e == Arith("+", Lit(Int(1)), Arith("*", Lit(Int(2)), Lit(Int(3))))
    states = build_lts(prog.main, prog.defs).states
    assert [env_has(s, "a", Int(7)) for s in states] == [False, True]
    assert not any(env_has(s, "a", Int(9)) for s in states)
    assert parse_system(pretty_system(prog.main), attrs=("a",)) == prog.main


def test_a_restricted_identifier_in_an_expression_is_a_name():
    prog = parse_program("attrs: a\nsystem:\n  nu x ({}: (x)@(tt).0)\n")
    assert prog.main.inner.proc.exprs == (Lit(Name("x")),)
    # outside the restriction x would be an attribute, which no one declares
    with pytest.raises(ResolveError, match="unresolvable identifier 'x'"):
        parse_program("attrs: a\nsystem:\n  {}: (x)@(tt).0\n")


def test_an_update_target_may_be_written_with_this():
    written = parse_program("system:\n  {a := 0}: [this.a := 1]()@(tt).0\n")
    plain = parse_program("system:\n  {a := 0}: [a := 1]()@(tt).0\n")
    assert written.main == plain.main and written.attrs == {"a"}


def test_parse_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse_process("('m')@(tt.0")
    assert exc.value.line == 1
    assert exc.value.col > 0


def test_name_literal_ends_on_its_line():
    with pytest.raises(ParseError) as exc:
        parse_system("{a := 'x\ny'}: 0")
    assert str(exc.value) == "1:7: unterminated name literal"
    # positions after a one-line literal stay on their own lines
    with pytest.raises(ParseError) as exc:
        parse_system("{a := 'x'}:\n\n\n)")
    assert (exc.value.line, exc.value.col) == (4, 1)


def test_attribute_declared_in_the_system_resolves_in_a_def_above_it():
    text = "def D() = (late)@(tt).[other := 1]0\nsystem:\n  {late := 1}: D()\n"
    prog = parse_program(text)
    assert prog.defs["D"][1].exprs == (Attr("late"),)
    assert prog.attrs == {"late", "other"}


def test_undeclared_attribute_is_reported_at_its_first_use():
    text = "attrs: a\n\ndef D() = (a, ghost)@(tt).0\n\nsystem:\n  {a := 1}: (ghost)@(tt).D()\n"
    with pytest.raises(ResolveError) as exc:
        parse_program(text)
    assert str(exc.value) == (
        "3:15: unresolvable identifier 'ghost' "
        "(neither a bound variable nor a declared attribute)"
    )


def test_a_syntax_error_is_reported_before_an_undeclared_attribute():
    with pytest.raises(ParseError, match="^3:1: expected a system"):
        parse_program("def D() = (ghost)@(tt).0\nsystem: {a := 1}: D() ||\n")


def test_reserved_identifiers_rejected():
    with pytest.raises((ParseError, ResolveError)):
        parse_process("('_n0')@(tt).0")


def test_unknown_definition_rejected():
    for text, at in (
        ("attrs: a\n\nsystem:\n  {a := 1}: Ghost()\n", "4:13"),
        ("attrs: a\n\nsystem:\n  !({a := 1}: Ghost())\n", "4:15"),
        ("attrs: a\n\nsystem:\n  nu x ({a := 1}: Ghost())\n", "4:19"),
        ("def D() = ('m')@(tt).Ghost()\nsystem:\n  {a := 1}: D()\n", "1:22"),
    ):
        with pytest.raises(ResolveError, match=f"^{at}: unknown definition 'Ghost'$"):
            parse_program(text)


def test_definition_arity_checked():
    text = "attrs: a\n\ndef D(x) = (x)@(tt).0\n\nsystem:\n  {a := 1}: D()\n"
    with pytest.raises(ResolveError, match=r"^6:13: call to 'D' with 0 argument\(s\)"):
        parse_program(text)


def test_duplicate_definition_is_reported_at_its_name():
    text = "def D() = 0\ndef  D() = 0\nsystem:\n  {a := 1}: D()\n"
    with pytest.raises(ResolveError, match="^2:6: duplicate definition 'D'$"):
        parse_program(text)


@pytest.mark.parametrize("defs, at", [
    ("def A() = A()\n", "2:5"),
    ("def A() = [a := 1]A()\n", "2:5"),
    ("def A() = (1)@(tt).0 | A()\n", "2:5"),
    ("def A() = (1)@(tt).0 + <tt>A()\n", "2:5"),
    # mutual recursion through an awareness test
    ("def A() = B()\ndef  B() = <tt>A()\n", "2:5"),
    ("def C() = (1)@(tt).B()\ndef A() = B()\ndef  B() = <tt>A()\n", "3:5"),
])
def test_unguarded_recursion_is_reported_at_the_definition(defs, at):
    # stepping such a definition would unfold its call forever
    text = f"attrs: a\n{defs}system:\n  {{a := 0}}: A()\n"
    with pytest.raises(ResolveError, match=f"^{at}: definition 'A' can call itself"):
        parse_program(text)


def test_a_prefix_guards_a_call():
    text = (
        "attrs: a\n"
        "def A() = (1)@(tt).A() + (tt)(x).B(x)\n"
        "def B(x) = [a := x]<tt>C()\n"  # an unguarded call that is not recursive
        "def C() = (tt)(y).A() | (a)@(tt).0\n"
        "system:\n  {a := 0}: A()\n"
    )
    assert set(parse_program(text).defs) == {"A", "B", "C"}


def test_free_variable_in_definition_rejected():
    # a body reads a name no parameter binds as an attribute, so an
    # undeclared one is refused as one
    text = "attrs: a\n\ndef D() = (x)@(tt).0\n\nsystem:\n  {a := 1}: D()\n"
    with pytest.raises(ResolveError, match="^3:12: unresolvable identifier 'x'"):
        parse_program(text)


def test_comments_and_blank_lines_ignored():
    text = "# heading\nattrs: a\n\nsystem:\n  # inline note\n  {a := 1}: 0\n"
    prog = parse_program(text)
    assert isinstance(prog.main, Comp)


def test_round_trip_corpus(corpus_dir):
    for path in sorted(corpus_dir.glob("*.abc")):
        prog = parse_program(path.read_text())
        again = parse_system(pretty_system(prog.main), prog.defs, attrs=prog.attrs)
        assert again == prog.main, path.name
        for name, (params, body) in prog.defs.items():
            rebody = parse_process(
                pretty_proc(body), attrs=prog.attrs, scope=params
            )
            assert rebody == body, f"{path.name}:{name}"


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_round_trip_any_seed(seed):
    s = gen_system(random.Random(seed))
    assert parse_system(pretty_system(s), attrs=ATTRS) == s


def test_round_trip_random_asts():
    rng = random.Random(2024)
    for i in range(1000):
        s = gen_system(rng)
        text = pretty_system(s)
        again = parse_system(text, attrs=ATTRS)
        assert again == s, f"iteration {i}: {text}"
