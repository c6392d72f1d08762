"""The broadcast-pi side: reference semantics, the translation into the
attribute calculus, and the lockstep correspondence suite."""

import time

import pytest

from abcwb.bpi import (
    BIn,
    BOut,
    BTAU,
    BpiParseError,
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


def test_parse_error_reported():
    with pytest.raises(BpiParseError):
        parse_bpi("a<v.nil")
    with pytest.raises(BpiParseError):
        parse_bpi("rec A(x). nil @ ()")  # wrong call arity


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
    assert [lab for lab, _ in system_steps(sys, defs, u)] == [TAU]


def test_recursion_translates_to_definition():
    _, defs = encode(parse_bpi("rec A(). a<v>.A() @ ()"))
    assert len(defs) == 1


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
