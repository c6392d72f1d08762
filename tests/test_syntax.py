"""Core term representation: names, substitution, canonical forms."""

import random
from dataclasses import fields, is_dataclass, replace

from hypothesis import given, settings, strategies as st

from abcwb.syntax import (
    And,
    Arith,
    Attr,
    AttributeEnv,
    Aware,
    Bang,
    Bool,
    Call,
    Cmp,
    Comp,
    FF_,
    In,
    Int,
    Lit,
    Name,
    NIL,
    Not,
    Nu,
    Or,
    Out,
    Par,
    Process,
    Rand,
    Sum,
    SysPar,
    System,
    ThisAttr,
    TT_,
    TupleV,
    Upd,
    Var,
    alpha_equal,
    bound_names,
    canonicalize,
    children,
    collect_attrs,
    collect_values,
    free_names,
    gensym,
    map_children,
    pretty_system,
    rename,
    substitute,
)

import rename_oracle
from astgen import gen_system, rename_binders, reserved_renaming
from debruijn import debruijn


def comp(env=None, proc=NIL):
    return Comp(AttributeEnv.of(env or {}), proc)


def test_free_names_of_env_values():
    c = comp({"a": Name("x"), "b": TupleV((Int(1), Name("y")))})
    assert free_names(c) == frozenset({"x", "y"})


def test_free_names_input_binds_vars():
    p = In(Cmp("=", Var("v"), Lit(Name("m"))), ("v",), Out((Var("v"),), TT_, NIL))
    assert free_names(comp(proc=p)) == frozenset({"m"})


def test_nu_binds():
    s = Nu("x", comp({"a": Name("x")}))
    assert free_names(s) == frozenset()
    assert bound_names(s) == frozenset({"x"})


def test_substitute_replaces_var():
    p = Out((Var("v"),), TT_, NIL)
    q = substitute(p, {"v": Int(7)})
    assert q == Out((Lit(Int(7)),), TT_, NIL)


def test_substitute_is_capture_avoiding():
    # substituting under a binder for the same variable must not touch it
    inner = In(TT_, ("v",), Out((Var("v"),), TT_, NIL))
    assert substitute(inner, {"v": Int(3)}) == inner
    # a value naming the input variable x must not be captured by it
    p = In(Cmp("=", Var("x"), Var("v")), ("x",), Out((Var("v"), Var("x")), TT_, NIL))
    q = substitute(p, {"v": Name("x")})
    want = In(Cmp("=", Var("z"), Lit(Name("x"))), ("z",), Out((Lit(Name("x")), Var("z")), TT_, NIL))
    assert debruijn(comp(proc=q)) == debruijn(comp(proc=want))


def test_rename_stops_at_binder():
    s = Nu("x", comp({"a": Name("x")}))
    assert rename(s, {"x": "y"}) == s


def test_rename_avoids_capture_by_renaming_binder():
    # renaming y -> x under (nu x) must not capture: the binder moves away
    s = Nu("x", comp({"a": Name("y"), "b": Name("x")}))
    r = rename(s, {"y": "x"})
    assert free_names(r) == frozenset({"x"})
    assert isinstance(r, Nu) and r.name != "x"
    assert debruijn(r) == debruijn(Nu("z", comp({"a": Name("x"), "b": Name("z")})))
    # the same under an input prefix that binds x
    p = In(Cmp("=", Var("x"), Lit(Name("y"))), ("x",), Out((Var("y"), Var("x")), TT_, NIL))
    want = In(Cmp("=", Var("z"), Lit(Name("x"))), ("z",), Out((Var("x"), Var("z")), TT_, NIL))
    assert debruijn(comp(proc=rename(p, {"y": "x"}))) == debruijn(comp(proc=want))


def test_rename_is_simultaneous():
    # a swap: renaming one name at a time would merge the two
    s = comp({"a": Name("x"), "b": TupleV((Name("y"), Name("z")))})
    assert rename(s, {"x": "y", "y": "x"}) == comp(
        {"a": Name("y"), "b": TupleV((Name("x"), Name("z")))})
    # under a binder both new names would capture
    p = In(TT_, ("x", "y"), Out((Var("x"), Var("y"), Var("a"), Var("b")), TT_, NIL))
    want = In(TT_, ("u", "w"), Out((Var("u"), Var("w"), Var("y"), Var("x")), TT_, NIL))
    got = rename(p, {"a": "y", "b": "x"})
    assert debruijn(comp(proc=got)) == debruijn(comp(proc=want))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_rename_agrees_with_renaming_through_temporaries(seed):
    # the new names are reserved ones that binders use too, so both
    # renamings have binders to move out of the way
    rng = random.Random(seed)
    s = rename_binders(gen_system(rng, depth=3), rng)
    sigma = reserved_renaming(s, rng)
    got = rename(s, sigma)
    assert debruijn(got) == debruijn(rename_oracle.rename(s, sigma))
    assert free_names(got) == {sigma.get(n, n) for n in free_names(s)}


def test_gensym_depends_only_on_what_it_avoids():
    # no global counter: the same call gives the same name every time
    assert gensym({"_f0", "a"}) == gensym({"_f0", "a"}) == "_f1"
    assert gensym(frozenset()) == "_f0"


def test_noop_substitution_and_renaming_return_the_node_itself():
    # the binder x would be renamed if anything were substituted below it
    proc = Par(In(TT_, ("x",), Out((Var("x"),), TT_, NIL)), Out((Var("w"),), TT_, NIL))
    assert substitute(proc, {"v": Name("x")}) is proc
    assert substitute(proc, {"w": Int(1)}).left is proc.left
    s = Nu("x", comp({"a": Name("y")}))
    assert rename(s, {"z": "x"}) is s
    assert rename(s, {"x": "q"}) is s


def test_canonicalize_alpha_equivalent_nus():
    a = Nu("x", comp({"a": Name("x")}))
    b = Nu("z", comp({"a": Name("z")}))
    assert canonicalize(a) == canonicalize(b)
    assert alpha_equal(a, b)


def test_canonicalize_distinguishes_free_from_bound():
    a = Nu("x", comp({"a": Name("x")}))
    b = comp({"a": Name("x")})
    assert canonicalize(a) != canonicalize(b)
    assert not alpha_equal(a, b)


def test_canonicalize_input_variables():
    a = comp(proc=In(TT_, ("u",), Out((Var("u"),), TT_, NIL)))
    b = comp(proc=In(TT_, ("w",), Out((Var("w"),), TT_, NIL)))
    assert canonicalize(a) == canonicalize(b)


def test_canonicalize_keeps_distinct_binders_distinct():
    a = SysPar(Nu("x", comp({"a": Name("x")})), Nu("x", comp({"a": Name("x")})))
    b = SysPar(Nu("x", comp({"a": Name("x")})), Nu("y", comp({"a": Name("y")})))
    assert canonicalize(a) == canonicalize(b)


def test_canonicalize_idempotent_on_random_terms():
    rng = random.Random(11)
    for _ in range(300):
        s = gen_system(rng)
        c = canonicalize(s)
        assert canonicalize(c) == c


def test_pretty_system_deterministic():
    rng = random.Random(5)
    for _ in range(100):
        s = gen_system(rng)
        assert pretty_system(s) == pretty_system(s)


def test_collect_values_reaches_env_and_payload():
    s = comp({"a": Int(4)}, Out((Lit(Name("m")),), TT_, NIL))
    vals = collect_values(s)
    assert Int(4) in vals and Name("m") in vals


def _every_kind():
    """A system in which every node kind occurs, and each attribute and
    value in one place."""
    proc = Sum(
        Out((Arith("+", Attr("a1"), Rand(2)),), Or(Cmp("=", ThisAttr("a2"), Lit(Int(5))), FF_), NIL),
        Par(
            In(And(Not(Cmp("=", Attr("a3"), Var("x"))), TT_), ("x",),
               Upd((("a4", Lit(Bool(True))),), NIL)),
            Aware(Cmp("=", Attr("a5"), Lit(TupleV((Name("m"), Int(7))))), Call("D", (Attr("a6"),))),
        ),
    )
    return Nu("r", SysPar(Bang(comp({"a7": Name("n")}, proc), 2), comp({"a8": Int(9)})))


def _direct(x):
    """The syntax nodes in a field's value, read through the dataclass
    fields (no code shared with ``children``)."""
    if is_dataclass(x):
        yield x
    elif isinstance(x, tuple):
        for item in x:
            yield from _direct(item)


def _fields(node) -> list:
    return [c for f in fields(node) for c in _direct(getattr(node, f.name))]


def _nodes(node):
    """Every node of a term, the term itself included."""
    yield node
    for child in _fields(node):
        yield from _nodes(child)


def _free_in_nameless(form) -> set:
    """The names a nameless form marks ``("free", n)``."""
    if len(form) == 2 and form[0] == "free" and isinstance(form[1], str):
        return {form[1]}
    return set().union(*(_free_in_nameless(x) for x in form if isinstance(x, tuple)))


def test_collect_attrs_and_values_see_every_node_kind():
    s = _every_kind()
    assert collect_attrs(s) == {f"a{k}" for k in range(1, 9)}
    assert collect_values(s) == {
        Int(0), Int(1), Int(5), Bool(True), TupleV((Name("m"), Int(7))), Name("m"), Int(7),
        Name("n"), Int(9),
    }


def test_free_names_and_binders_see_every_node_kind():
    s = _every_kind()
    bang, plain = s.inner.left, s.inner.right
    sends, hears = bang.inner.proc.left, bang.inner.proc.right
    assert free_names(s) == {"m", "n"}
    assert free_names(hears.left) == set()  # the input binds x
    assert free_names(hears.left.pred) == {"x"}
    assert free_names(hears.right) == {"m"}
    assert free_names(Nu("n", bang)) == {"m"}
    assert free_names(sends) == free_names(plain) == set()
    assert bound_names(s) == {"r", "x"} and bound_names(hears) == {"x"}
    assert bound_names(sends) == bound_names(plain) == bound_names(hears.right) == set()


def test_children_and_map_children_share_one_dispatch():
    for node in _nodes(_every_kind()):
        seen = []
        assert map_children(node, lambda c: seen.append(c) or c) is node
        assert seen == list(children(node)) == _fields(node)
        # each child rebuilt as an equal copy: an equal node, built anew
        copied = map_children(node, replace)
        assert copied == node and (copied is node) == (not seen)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_free_names_and_binders_agree_with_the_nameless_form(seed):
    rng = random.Random(seed)
    s = rename_binders(gen_system(rng, depth=3), rng)
    # and with reserved names free, as canonical binders have them
    for s in (s, rename(s, reserved_renaming(s, rng))):
        for node in _nodes(s):
            # canonicalize skips these kinds unwalked: none may hold a binder
            if not isinstance(node, (Process, System)):
                assert not any(type(n) in (In, Nu) for n in _nodes(node))
                assert bound_names(node) == set()
            if isinstance(node, System):
                assert free_names(node) == _free_in_nameless(debruijn(node))


def test_env_binding_order_is_canonical():
    e1 = AttributeEnv.of({"a": Int(1), "b": Int(2)})
    e2 = AttributeEnv.of({"b": Int(2), "a": Int(1)})
    assert e1 == e2


def test_predicate_equality_is_structural():
    p = And(Cmp("=", Attr("a"), Lit(Bool(True))), TT_)
    q = And(Cmp("=", Attr("a"), Lit(Bool(True))), TT_)
    assert p == q
    assert hash(p) == hash(q)


def test_nodes_are_slotted_and_cache_their_hash_and_free_names():
    def build():
        return Nu("x", comp({"a": Name("x"), "b": Name("y")}, Out((Var("v"),), TT_, NIL)))

    s, t = build(), build()
    assert not hasattr(s, "__dict__")
    assert hash(s) == hash(t) and s == t
    assert free_names(s) == frozenset({"v", "y"})
    assert free_names(s) is free_names(s)
