"""The broadcast-pi side: reference semantics, the translation into the
attribute calculus, and the lockstep correspondence suite."""

import random
import re
import time
from collections import Counter

import pytest

from abcwb import bpi, syntax
from abcwb.bpi import (
    BOut,
    BCall,
    BNu,
    BPar,
    GIn,
    GNil,
    GOut,
    GSum,
    PG,
    BRec,
    BTAU,
    abc_divergent,
    bpi_barbs,
    bpi_divergent,
    bpi_steps,
    check_barb_correspondence,
    check_correspondence,
    check_divergence_correspondence,
    check_name_invariance,
    encode,
    parse_bpi,
)
from bpigen import gen_term, show
from abcwb.parser import ParseError
from abcwb.attributes import Universe, satisfies
from abcwb.syntax import (
    Cmp,
    Comp,
    In,
    Lit,
    Name,
    Out,
    Var,
    pretty_pred,
)


# -- reference semantics -----------------------------------------------------


def test_send_is_non_blocking():
    p = parse_bpi("a<v>.nil")
    (lab, _), = bpi_steps(p)
    assert lab == BOut("a", ("v",))


def test_broadcast_reaches_every_listener():
    p = parse_bpi("a<v>.nil | a(x).x<w>.nil | a(y).y<u>.nil")
    outs = [(lab, q) for lab, q in bpi_steps(p) if lab is not BTAU]
    assert len(outs) == 1
    _, q = outs[0]
    # both listeners were instantiated with v
    assert "x" not in repr(q) and "y" not in repr(q)
    follow = {lab.chan for lab, _ in bpi_steps(q) if lab is not BTAU}
    assert follow == {"v"}


def test_listener_on_other_channel_is_unchanged():
    p = parse_bpi("a<v>.nil | b(x).nil")
    (lab, q), = [s for s in bpi_steps(p) if s[0] is not BTAU]
    assert lab.chan == "a"
    # the residual still holds the untouched input on b
    from abcwb.bpi import GIn

    assert isinstance(q.right.g, GIn) and q.right.g.chan == "b"


def test_arity_mismatch_listener_is_unchanged():
    p = parse_bpi("a<v, w>.nil | a(x).nil")
    outs = [s for s in bpi_steps(p) if s[0] is not BTAU]
    assert len(outs) == 1


def test_restricted_channel_is_silent_outside():
    p = parse_bpi("nu c (c<v>.nil)")
    assert [lab for lab, _ in bpi_steps(p)] == [BTAU]


def test_payload_extrusion_opens_the_binder():
    p = parse_bpi("nu c (d<c>.nil)")
    (lab, _), = bpi_steps(p)
    assert lab.chan == "d"
    assert lab.bound == frozenset(lab.vals)


def test_tau_prefix():
    p = parse_bpi("tau.a<v>.nil")
    (lab, q), = bpi_steps(p)
    assert lab is BTAU
    assert bpi_barbs(q) == {("a", 1)}


def test_recursion_unfolds():
    p = parse_bpi("rec A(). a<v>.A() @ ()")
    (lab, q), = bpi_steps(p)
    assert lab == BOut("a", ("v",))
    (lab2, _), = bpi_steps(q)
    assert lab2 == BOut("a", ("v",))


def test_recursion_unfolds_under_a_restriction():
    # the body's nu carries the call, so unfolding maps through a BNu
    p = parse_bpi("rec A(). tau.nu x (x<v>.A()) @ ()")
    (lab, q), = bpi_steps(p)
    assert lab is BTAU and q == BNu("x", PG(GOut("x", ("v",), p)))
    # the send on the restricted x is silent, and the copy of A unfolds again
    (lab, r), = bpi_steps(q)
    assert lab is BTAU and r == BNu("x", p)
    (lab, _), = bpi_steps(r)
    assert lab is BTAU


def test_divergence_detected():
    div, _ = bpi_divergent(parse_bpi("rec T(). tau.T() @ ()"))
    assert div
    calm, _ = bpi_divergent(parse_bpi("a<v>.nil"))
    assert not calm


@pytest.mark.parametrize(
    "text, bound, expected",
    [
        # a diamond: both interleavings meet in one state, no cycle
        ("tau.nil | tau.nil", 50, (False, False)),
        ("(tau.nil | tau.nil) | tau.nil", 50, (False, False)),
        ("rec T(). tau.T() @ ()", 50, (True, False)),
        ("rec T(). tau.tau.T() @ ()", 50, (True, False)),
        ("tau.nil | rec T(). tau.T() @ ()", 50, (True, False)),
        ("tau.tau.tau.nil", 50, (False, False)),
        ("tau.tau.tau.nil", 2, (False, True)),
    ],
)
def test_divergence_verdict_of_each_side(text, bound, expected):
    term = parse_bpi(text)
    sys, defs = encode(term)
    assert bpi_divergent(term, bound) == expected
    assert abc_divergent(sys, defs, bound) == expected


def test_corpus_t16_diverges_on_both_sides(corpus_dir):
    term = parse_bpi((corpus_dir / "bpi" / "t16.bpi").read_text())
    sys, defs = encode(term)
    assert bpi_divergent(term) == (True, False)
    assert abc_divergent(sys, defs) == (True, False)


def test_substitution_renames_a_rec_parameter_that_would_capture():
    p = parse_bpi("b(y). rec A(x). a<x, y>.A(x) @ (z) | b<x>.nil")
    (lab, q), = bpi_steps(p)
    assert lab == BOut("b", ("x",))
    # y received the free x, not the parameter x of A
    assert [lab for lab, _ in bpi_steps(q)] == [BOut("a", ("z", "x"))]


def test_unfolding_renames_a_binder_that_would_capture_the_copy():
    p = parse_bpi("rec A(x). w(w). x<w>.A(x) @ (v) | w<u>.nil | u<k>.nil")
    for chan in ("w", "v", "u"):
        (p,) = [q for lab, q in bpi_steps(p) if lab.chan == chan]
    # the unfolded copy of A listens on the free w, so nobody heard u<k>
    assert bpi_steps(p) == []


def test_extruding_a_shadowing_restriction_keeps_the_outer_one():
    p = parse_bpi("nu c (nil | nu c (k<c>.nil))")
    (lab, q), = bpi_steps(p)
    assert lab.bound == frozenset(lab.vals)
    assert isinstance(q, bpi.BNu) and q.name not in lab.bound


def test_parse_error_reported():
    with pytest.raises(ParseError):
        parse_bpi("a<v.nil")
    with pytest.raises(ParseError):
        parse_bpi("rec A(x). nil @ ()")  # wrong call arity


def test_parse_errors_give_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse_bpi("a<v>.nil\n| b(x).x<w.nil\n")
    assert (exc.value.line, exc.value.col) == (2, 11)
    assert str(exc.value) == "2:11: expected '>', found '.'"


@pytest.mark.parametrize("text", ["a<'v'>.nil", "a<1>.nil", "a<v>.nil || b<v>.nil"])
def test_tokens_of_the_abc_syntax_are_refused(text):
    with pytest.raises(ParseError):
        parse_bpi(text)


@pytest.mark.parametrize("text, message, col", [
    ("rec A(x). a<x>.A(x, x) @ (v)", "call to 'A' with wrong arity", 16),
    ("rec A(x). a<x>.B(x) @ (v)", "call to unknown recursion variable 'B'", 16),
    # a call outside its rec is unknown there
    ("rec A(). a<v>.A() @ () | A()", "call to unknown recursion variable 'A'", 26),
    # an inner rec of the same name shadows the outer arity
    ("rec A(x). a<x>. rec A(). b<v>.A(x) @ () @ (v)", "call to 'A' with wrong arity", 31),
])
def test_calls_are_checked_at_the_call(text, message, col):
    with pytest.raises(ParseError) as exc:
        parse_bpi(text)
    assert str(exc.value) == f"1:{col}: {message}"


_A, _B, _C = (GOut(c, ("v",), bpi.BNIL) for c in "abc")


@pytest.mark.parametrize("text, term", [
    # a whole component that reads as a sum takes more summands
    ("(a<v>.nil + b<v>.nil) + c<v>.nil", PG(GSum(GSum(_A, _B), _C))),
    ("(nil) + a<v>.nil", PG(GSum(GNil(), _A))),
    ("nil + a<v>.nil", PG(GSum(GNil(), _A))),
    ("a<v>.nil | (b<v>.nil) + c<v>.nil", BPar(PG(_A), PG(GSum(_B, _C)))),
    ("a<v>.nil + (b<v>.nil + c<v>.nil)", PG(GSum(_A, GSum(_B, _C)))),
    # a continuation is one atom: a sum after a prefix takes it whole,
    # and nil there ends it
    ("a<v>.b<v>.nil + c<v>.nil", PG(GOut("a", ("v",), PG(GSum(_B, _C))))),
    ("a<v>.nil + c<v>.nil", PG(GSum(_A, _C))),
])
def test_sums_parse(text, term):
    assert parse_bpi(text) == term


def test_an_identifier_with_a_list_is_an_input_before_a_dot_and_else_a_call():
    term = parse_bpi("rec A(). a<v>.(c().nil | A()) @ ()")
    inner = BPar(PG(GIn("c", (), bpi.BNIL)), BCall("A", ()))
    assert term == BRec("A", (), GOut("a", ("v",), inner), ())


def test_an_unclosed_list_is_reported_where_it_stops():
    with pytest.raises(ParseError) as exc:
        parse_bpi("a(x.nil")
    assert str(exc.value) == "1:4: expected ')', found '.'"


def test_a_sum_is_not_extended_past_a_restriction_or_a_call():
    with pytest.raises(ParseError, match="expected 'eof', found '\\+'"):
        parse_bpi("nu x (a<x>.nil) + b<v>.nil")
    with pytest.raises(ParseError, match="expected 'eof', found '\\+'"):
        parse_bpi("rec A(). a<v>.A() @ () + b<v>.nil")


def test_printed_terms_parse_back():
    # spaces, newlines, comments and parentheses between tokens change
    # nothing; ``nil + P`` and ``(P) + Q`` read as sums where they are a
    # whole component
    for seed in range(300):
        term = gen_term(random.Random(seed), 4)
        text = show(term, random.Random(seed))
        assert parse_bpi(text) == term, (seed, text)


def test_reserved_names_are_rejected():
    with pytest.raises(ParseError, match="reserved"):
        parse_bpi("a(_f0).b<_f0, c>.nil | a<c>.nil")
    with pytest.raises(ParseError, match="reserved"):
        parse_bpi("nu _n1 (a<_n1>.nil)")


# -- translation shape -------------------------------------------------------


def test_send_translates_to_self_addressed_broadcast():
    sys, _ = encode(parse_bpi("a<v>.nil"))
    assert isinstance(sys, Comp)
    proc = sys.proc
    assert isinstance(proc, Out)
    assert proc.exprs == (Lit(Name("a")), Lit(Name("v")))
    assert pretty_pred(proc.pred) == "'a' = 'a'"


def test_receive_translates_to_channel_matching_input():
    sys, _ = encode(parse_bpi("a(x).nil"))
    proc = sys.proc
    assert isinstance(proc, In)
    assert len(proc.vars) == 2  # channel slot plus one payload slot
    chan_var = proc.vars[0]
    assert proc.pred == Cmp("=", Var(chan_var), Lit(Name("a")))


def test_tau_translates_to_silent_send():
    from abcwb.attributes import is_ff

    sys, _ = encode(parse_bpi("tau.nil"))
    u = Universe.for_systems([sys])
    assert isinstance(sys.proc, Out)
    assert sys.proc.exprs == ()
    assert is_ff(sys.proc.pred, u)


def test_restriction_silences_translated_send():
    from abcwb.system import TAU, system_steps

    sys, defs = encode(parse_bpi("nu c (c<v>.nil)"))
    u = Universe.for_systems([sys])
    assert [lab for lab, _ in system_steps(sys, defs, u, {})] == [TAU]


def test_recursion_translates_to_definition():
    _, defs = encode(parse_bpi("rec A(). a<v>.A() @ ()"))
    assert len(defs) == 1


def test_a_shadowing_rec_gets_its_own_definition():
    term = parse_bpi("rec A(). a<v>. rec A(). b<v>.A() @ () @ ()")
    _, defs = encode(term)
    assert sorted(defs) == ["A", "A_0"]
    assert check_correspondence(term).ok


def test_input_variable_named_like_its_channel():
    term = parse_bpi("a(a).a<v>.nil | a<b>.nil")
    assert check_correspondence(term).ok
    assert check_name_invariance(term)


def test_encoding_does_not_depend_on_earlier_calls():
    term = parse_bpi("a(x).b(y).x<y>.nil | nu c (a<c>.c<v>.nil)")
    first = encode(term)
    check_correspondence(term)
    check_name_invariance(term)
    assert encode(term) == encode(term) == first


def test_name_invariance_captures_no_binder(monkeypatch):
    # the temporaries avoid the encoding's own binders, so no input
    # binder is captured and alpha-renamed through ``syntax.gensym``
    term = parse_bpi("a(x).b(y).x<y>.nil | c<d>.nil")
    drawn = []
    real = syntax.gensym
    monkeypatch.setattr(syntax, "gensym", lambda avoid: drawn.append(avoid) or real(avoid))
    assert check_name_invariance(term)
    assert drawn == []


@pytest.mark.parametrize("text, message", [
    ("a(x).nu k x<k>.nil", "restriction under a prefix"),
    ("a(y). rec A(). y<v>.A() @ ()", "rec A mentions a name bound outside it"),
    ("nu c (rec A(). c<v>.A() @ ())", "rec A mentions a name bound outside it"),
    # the same rec, free beside it, is translated first in one order
    ("rec A(). c<v>.A() @ () | nu c (rec A(). c<v>.A() @ ())",
     "rec A mentions a name bound outside it"),
    ("nu c (rec A(). c<v>.A() @ ()) | rec A(). c<v>.A() @ ()",
     "rec A mentions a name bound outside it"),
])
def test_untranslatable_terms_are_refused(text, message):
    with pytest.raises(ValueError, match=message):
        encode(parse_bpi(text))


# -- the full corpus, checked in lockstep ------------------------------------


def _corpus_terms(corpus_dir):
    files = sorted((corpus_dir / "bpi").glob("*.bpi"))
    assert len(files) >= 20
    return [(f.name, parse_bpi(f.read_text())) for f in files]


def test_corpus_step_bijection(corpus_dir):
    t0 = time.monotonic()
    for name, term in _corpus_terms(corpus_dir):
        res = check_correspondence(term, depth=6)
        assert res.ok, (name, res.failures[:3])
        assert res.checked_pairs >= 1, name
    assert time.monotonic() - t0 < 60


def test_corpus_barb_correspondence(corpus_dir):
    for name, term in _corpus_terms(corpus_dir):
        assert check_barb_correspondence(term), name


def test_corpus_divergence_correspondence(corpus_dir):
    for name, term in _corpus_terms(corpus_dir):
        assert check_divergence_correspondence(term), name


def test_corpus_name_invariance(corpus_dir):
    for name, term in _corpus_terms(corpus_dir):
        assert check_name_invariance(term), name


def test_a_failing_pair_below_the_bound_is_not_hidden_by_a_deeper_visit():
    # Y has no correct translation (parallel under a prefix); it is
    # reached at depth 1 and again at depth 2, the bound
    y = "tau.(a<v>.nil | a(x).nil)"
    term = parse_bpi(f"tau.({y}) + tau.(tau.{y})")
    res = check_correspondence(term, depth=2)
    assert not res.ok
    # perfbench.gen.Defect matches this report by its start
    assert res.failures == [
        "no target successor translates source continuation after ('tau',) at depth 1"
    ]


def test_a_target_without_the_source_steps_is_reported(monkeypatch):
    monkeypatch.setattr(bpi, "system_steps", lambda *args: [])
    res = check_correspondence(parse_bpi("a<v>.nil"))
    assert not res.ok and res.checked_pairs == 1
    assert res.failures == [
        "label sets differ at depth 0: source=[('out', 'a', ('v',), ())] target=[]"
    ]


def test_a_target_with_each_step_twice_is_reported(monkeypatch):
    real = bpi.system_steps
    monkeypatch.setattr(
        bpi, "system_steps", lambda *args: [s for s in real(*args) for _ in range(2)]
    )
    res = check_correspondence(parse_bpi("a<v>.nil"))
    assert not res.ok
    assert res.failures == ["branching differs on ('out', 'a', ('v',), ()): 1 source vs 2 target"]


def test_correspondence_stops_at_the_pair_bound(monkeypatch):
    term = parse_bpi("a<v>.nil | b<v>.nil | c<v>.nil")
    whole = check_correspondence(term)
    assert whole.ok and whole.checked_pairs == 8 and not whole.truncated
    monkeypatch.setattr(bpi, "MAX_PAIRS", 3)
    cut = check_correspondence(term)
    assert cut.ok and cut.truncated and cut.checked_pairs == 3


def test_generated_terms_correspond(monkeypatch):
    hits = Counter()

    def spy(name, hit):
        real = getattr(bpi, name)

        def wrapper(*args):
            out = real(*args)
            for key in hit(args, out):
                hits[key] += 1
            return out

        monkeypatch.setattr(bpi, name, wrapper)

    spy("gensym", lambda args, out: ["fresh name"])
    spy("_bavoid_clash", lambda args, out: ["extrusion renamed"] * (out[0] != args[0]))
    spy("_replace_calls", lambda args, out: (
        ["call replaced"] * (isinstance(args[0], BCall) and args[0].name == args[1])
        + ["rec shadowed"] * (isinstance(args[0], BRec) and args[0].name == args[1])
    ))
    failing = []
    for seed in range(300):
        term = gen_term(random.Random(seed), 4)
        res = check_correspondence(term, depth=5)
        # the one known defect: see test_extruded_names_match_by_position
        assert all(_EXTRUDING.search(f) for f in res.failures), (seed, term, res.failures[:2])
        if not res.ok:
            failing.append(seed)
        assert check_barb_correspondence(term), (seed, term)
        assert check_divergence_correspondence(term), (seed, term)
        assert check_name_invariance(term), (seed, term)
    assert set(hits) == {"fresh name", "extrusion renamed", "call replaced", "rec shadowed"}
    # pinned, so that a regression in extrusion or renaming that fails
    # in the same way on another term does not pass unseen
    assert failing == _EXTRUSION_FAILURES


_EXTRUSION_FAILURES = [39, 51, 107, 213, 245, 270, 273]


# a failure after a send that extrudes names, such as
# "... after ('out', 'k', ('_n0',), ('_n0',)) at depth 1"
_EXTRUDING = re.compile(r"^no target successor .* \('_n\d+'(, '_n\d+')*,?\)\) at depth \d+$")


@pytest.mark.xfail(strict=True, reason="the two sides pick their own fresh names for an "
                   "extruded name, and successors are compared by spelling")
def test_extruded_names_match_by_position():
    # the target renames one of the two restrictions of r before the
    # step, so it extrudes a name the source still spells r
    assert check_correspondence(parse_bpi("nu r (a<r>.r<v>.nil) | nu r (d<r>.r<w>.nil)")).ok
