"""Broadcast pi-calculus: oracle semantics, translation, correspondence.

The source calculus here is a pi-calculus with broadcast communication:
a send on channel ``a`` reaches every parallel component at once, and a
component listening on ``a`` cannot refuse the message; components not
listening are unaffected.  Restriction ``nu a P`` makes broadcasts on
``a`` invisible (silent) outside the scope, and a restricted name sent
as payload escapes its scope.

The translation maps it into the attribute calculus with components
that carry no attributes: a send on ``a`` becomes a broadcast whose
first payload element is ``a`` and whose predicate is the trivially
true test ``a = a``, and a receive on ``a`` becomes an input that binds
the channel position and compares it against ``a``.  The point of the
predicate ``a = a`` is restriction: hiding ``a`` falsifies it for the
outside, which demotes the step to a silent one, exactly like the
source restriction does.  An internal step becomes a send with an
unsatisfiable predicate.  A ``rec`` becomes a definition; since
restriction is system-level and definitions are closed in the target,
restriction under a prefix and a ``rec`` body that mentions a name bound
outside it have no image.

``check_correspondence`` replays both sides in lockstep and demands a
bijection between their steps, with translated continuations matching
the target's successors up to renaming of binders.

The source syntax is walked through two local functions, independent of
``syntax.children``/``map_children``: ``_bchildren(p)`` gives a node's
child terms and ``_bmap(p, f, *args)`` rebuilds it from ``f`` applied to
each.  Input variables, ``nu`` and ``rec`` parameters are crossed by one
capture-avoiding binder rule, ``_bscope``.  Fresh names are ``_f<k>``,
drawn per call and skipping every name of the term at hand; the parser
rejects such reserved names.  Within one correspondence check a
component is translated once, in the first term that has it, and later
terms reuse that translation: its fresh names skip that first term's
names, which include all of the component's own, and they are bound
only inside the component (see ``_Encoder``).

Only the lexing and parsing machinery is shared with `.abc` files: the
text goes through ``parser.tokenize``, the parser is a ``parser._Cursor``
and errors are ``parser.ParseError`` with a ``line:col``.  The semantics
and the traversals above stay separate from ``syntax`` on purpose, so
that the oracle is independent of the calculus it checks.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import deque
from dataclasses import dataclass, field

from .attributes import TT_KEY, Universe, fingerprint
from .parser import ParseError, _Cursor
from .syntax import (
    Call,
    Cmp,
    Comp,
    AttributeEnv,
    Definitions,
    In,
    Lit,
    Name,
    NIL,
    Nu,
    Out,
    Par,
    Process,
    Program,
    Sum,
    SysPar,
    System,
    FF_,
    Var,
    alpha_equal,
    canonicalize,
    fresh_names,
    gensym,
    rename,
)
from .system import SOut, TAU, system_steps


# ---------------------------------------------------------------------------
# Syntax (two-level: sums of prefixes, and full processes)


class BG:
    """Guarded term: a sum of prefixes."""

    __slots__ = ()


class BP:
    """Full process."""

    __slots__ = ()


@dataclass(frozen=True)
class GNil(BG):
    pass


@dataclass(frozen=True)
class GIn(BG):
    chan: str
    vars: tuple[str, ...]
    cont: "BP"


@dataclass(frozen=True)
class GOut(BG):
    chan: str
    vals: tuple[str, ...]
    cont: "BP"


@dataclass(frozen=True)
class GTau(BG):
    cont: "BP"


@dataclass(frozen=True)
class GSum(BG):
    left: BG
    right: BG


@dataclass(frozen=True)
class PG(BP):
    g: BG


@dataclass(frozen=True)
class BPar(BP):
    left: BP
    right: BP


@dataclass(frozen=True)
class BNu(BP):
    name: str
    inner: BP


@dataclass(frozen=True)
class BRec(BP):
    """``rec A(x...).G @ (y...)``: a recursive guarded body, applied."""

    name: str
    params: tuple[str, ...]
    body: BG
    args: tuple[str, ...]


@dataclass(frozen=True)
class BCall(BP):
    name: str
    args: tuple[str, ...]


BNIL = PG(GNil())

def _bchildren(p) -> tuple:
    """The child terms of a node, in field order."""
    # node classes have no subclasses, so the exact type decides
    kind = type(p)
    if kind is PG:
        return (p.g,)
    if kind is GIn or kind is GOut or kind is GTau:
        return (p.cont,)
    if kind is GSum or kind is BPar:
        return (p.left, p.right)
    if kind is BNu:
        return (p.inner,)
    if kind is BRec:
        return (p.body,)
    return ()


def _bmap(p, f, *args):
    """``p`` with ``f(child, *args)`` for each child, in field order;
    ``p`` itself when every child comes back as the same object."""
    kind = type(p)
    if kind is PG:
        g = f(p.g, *args)
        return p if g is p.g else PG(g)
    if kind is GIn or kind is GOut or kind is GTau:
        cont = f(p.cont, *args)
        return p if cont is p.cont else dataclasses.replace(p, cont=cont)
    if kind is GSum or kind is BPar:
        left, right = f(p.left, *args), f(p.right, *args)
        return p if left is p.left and right is p.right else kind(left, right)
    if kind is BNu:
        inner = f(p.inner, *args)
        return p if inner is p.inner else BNu(p.name, inner)
    if kind is BRec:
        body = f(p.body, *args)
        return p if body is p.body else BRec(p.name, p.params, body, p.args)
    return p


def _bsyms(p) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The names a node uses itself, and the names it binds in its
    children (a binder never scopes over the node's own uses)."""
    kind = type(p)
    if kind is GOut:
        return (p.chan, *p.vals), ()
    if kind is GIn:
        return (p.chan,), p.vars
    if kind is BNu:
        return (), (p.name,)
    if kind is BRec:
        return p.args, p.params
    if kind is BCall:
        return p.args, ()
    return (), ()


def bfree(p) -> frozenset[str]:
    uses, binds = _bsyms(p)
    inner = frozenset().union(*map(bfree, _bchildren(p)))
    return inner.difference(binds).union(uses)


def _bnames(p) -> set[str]:
    """Every name of a term, free or bound."""
    names = set()
    todo = [p]
    while todo:
        q = todo.pop()
        uses, binds = _bsyms(q)
        names.update(uses, binds)
        todo += _bchildren(q)
    return names


def _supply(p):
    """Fresh names for one call on ``p``: every name of ``p`` is skipped.
    Those are collected when the first fresh name is drawn."""
    yield from fresh_names(_bnames(p))


def _bscope(binders, body, sub: dict[str, str], avoid=frozenset()):
    """The binder rule: ``binders`` scoping over ``body``, with ``sub``
    pushed under them; returns the new binders and body.

    The binders shadow their own entries of ``sub``.  A binder that is
    in ``avoid``, or that would capture the image of a name free in
    ``body``, is renamed to a fresh name throughout ``body``.
    """
    inner = {k: v for k, v in sub.items() if k not in binders}
    if not any(x in avoid or x in inner.values() for x in binders):
        return binders, bsubst(body, inner)
    free = bfree(body)
    inner = {k: v for k, v in inner.items() if k in free}
    used = {*free, *avoid, *inner.values(), *binders}
    for x in binders:
        if x in avoid or x in inner.values():
            inner[x] = gensym(used)
            used.add(inner[x])
    return tuple(inner.get(x, x) for x in binders), bsubst(body, inner)


def bsubst(p, sub: dict[str, str], avoid=frozenset()):
    """Capture-avoiding simultaneous name-for-name substitution.

    A binder of ``p`` itself that is in ``avoid`` is renamed as well.
    """
    if not sub and not avoid:
        return p

    def s(n: str) -> str:
        return sub.get(n, n)

    if isinstance(p, GIn):
        vars_, cont = _bscope(p.vars, p.cont, sub, avoid)
        return GIn(s(p.chan), vars_, cont)
    if isinstance(p, BNu):
        (name,), inner = _bscope((p.name,), p.inner, sub, avoid)
        return BNu(name, inner)
    if isinstance(p, BRec):
        params, body = _bscope(p.params, p.body, sub, avoid)
        return BRec(p.name, params, body, tuple(map(s, p.args)))
    if isinstance(p, GOut):
        return GOut(s(p.chan), tuple(map(s, p.vals)), bsubst(p.cont, sub))
    if isinstance(p, BCall):
        return BCall(p.name, tuple(map(s, p.args)))
    return _bmap(p, bsubst, sub)


def _replace_calls(p, name: str, replace, carried=frozenset()):
    """Replace each call to recursion variable ``name`` that no inner
    ``rec`` of that name shadows by ``replace(call)``.

    ``carried`` holds the free names a replacement brings in besides the
    call's arguments; a binder above a replaced call that would capture
    one is renamed first.
    """
    if isinstance(p, BCall):
        return replace(p) if p.name == name else p
    if isinstance(p, BRec) and p.name == name:
        return p
    out = _bmap(p, _replace_calls, name, replace, carried)
    if out is not p and not carried.isdisjoint(_bsyms(p)[1]):
        out = _bmap(bsubst(p, {}, carried), _replace_calls, name, replace, carried)
    return out


# ---------------------------------------------------------------------------
# Parser for .bpi terms


class _BParser(_Cursor):
    """Recursive-descent parser for ``.bpi`` text; each call is checked
    against the ``rec`` binders around it as it is read."""

    keywords = ("nu", "rec", "tau", "nil")

    def __init__(self, text: str):
        super().__init__(text)
        self.recs: dict[str, int] = {}  # the arity of each rec in scope

    def proc(self) -> BP:
        lhs = self.component()
        while self.accept("|"):
            lhs = BPar(lhs, self.component())
        return lhs

    def component(self) -> BP:
        # a sum may start with nil only here: after a prefix, nil ends it
        if self.peek().text == "nil" and self.peek(1).kind == "+":
            return PG(self.gsum())
        return self.proc_atom()

    def proc_atom(self) -> BP:
        t = self.peek()
        if t.text == "nu":
            self.next()
            name = self.ident_name()
            return BNu(name, self.proc_atom())
        if t.text == "rec":
            self.next()
            name = self.ident_name()
            params = self.name_list("(", ")")
            if len(set(params)) != len(params):
                raise ParseError(f"rec {name}: parameters must be distinct", t.line, t.col)
            self.expect(".")
            outer, self.recs = self.recs, {**self.recs, name: len(params)}
            body = self.gsum()
            self.recs = outer
            self.expect("@")
            args = self.name_list("(", ")")
            if len(args) != len(params):
                raise ParseError(f"rec {name}: arity mismatch", t.line, t.col)
            return BRec(name, params, body, args)
        if t.kind == "(":
            self.next()
            p = self.proc()
            self.expect(")")
            return p
        if t.text == "nil":
            self.next()
            return BNIL
        if self._is_prefix_start():
            return PG(self.gsum())
        # an identifier that starts no prefix calls an enclosing rec
        name = self.ident_name()
        args = self.name_list("(", ")") if self.peek().kind == "(" else ()
        arity = self.recs.get(name)
        if arity is None:
            raise ParseError(f"call to unknown recursion variable {name!r}", t.line, t.col)
        if arity != len(args):
            raise ParseError(f"call to {name!r} with wrong arity", t.line, t.col)
        return BCall(name, args)

    def _is_prefix_start(self) -> bool:
        # a(x).P and a<v>.P have a "." after the closing bracket; a call
        # A(x) does not, and only prefixes use angle brackets
        t, nxt = self.peek(), self.peek(1).kind
        if t.text == "tau":
            return True
        return t.kind == "ident" and (
            nxt == "<" or nxt == "(" and self.toks[self._matching_paren(self.pos + 1)].kind == "."
        )

    def gsum(self) -> BG:
        lhs = self.prefix()
        while self.accept("+"):
            lhs = GSum(lhs, self.prefix())
        return lhs

    def prefix(self) -> BG:
        t = self.peek()
        if t.text == "nil":
            self.next()
            return GNil()
        if t.text == "tau":
            self.next()
            self.expect(".")
            return GTau(self.proc_atom())
        if t.kind == "(":
            self.next()
            g = self.gsum()
            self.expect(")")
            return g
        chan = self.ident_name()
        nxt = self.peek()
        if nxt.kind == "(":
            vars_ = self.name_list("(", ")")
            if len(set(vars_)) != len(vars_):
                raise ParseError("input variables must be distinct", t.line, t.col)
            self.expect(".")
            return GIn(chan, vars_, self.proc_atom())
        if nxt.kind == "<":
            vals = self.name_list("<", ">")
            self.expect(".")
            return GOut(chan, vals, self.proc_atom())
        raise ParseError(f"expected a prefix after {chan!r}", nxt.line, nxt.col)

    def name_list(self, open_: str, close: str) -> tuple[str, ...]:
        self.expect(open_)
        return self.items(self.ident_name, close)


def parse_bpi(text: str) -> BP:
    p = _BParser(text)
    term = p.proc()
    p.expect("eof")
    return term


# ---------------------------------------------------------------------------
# Oracle semantics (independent of the attribute calculus)


@dataclass(frozen=True)
class BOut:
    chan: str
    vals: tuple[str, ...]
    bound: frozenset[str] = frozenset()


class BTauL:
    def __repr__(self):
        return "BTAU"


BTAU = BTauL()


def _copies(r: BRec) -> tuple:
    """What ``_replace_calls`` takes after the term to put a copy of
    ``r`` in place of each call to it: the name, the copy, and the names
    free in ``r``, which a copy brings in besides the call's arguments."""

    def copy(call: BCall) -> BRec:
        return BRec(r.name, r.params, r.body, call.args)

    return r.name, copy, bfree(r.body).difference(r.params)


def _unfold_rec(p: BRec) -> PG:
    """The body with the arguments for the parameters and, for each call,
    a copy of the whole ``rec`` applied to the call's arguments."""
    body = bsubst(PG(p.body), {x: a for x, a in zip(p.params, p.args) if x != a})
    return _replace_calls(body, *_copies(p))


def bpi_deliver(p: BP, chan: str, vals: tuple[str, ...]) -> list[BP]:
    """All ways a process absorbs one broadcast; never empty.

    A listener on the right channel with the right arity must take the
    message; everyone else stays put (a ``rec`` that does not listen
    stays folded).
    """
    if isinstance(p, (PG, BRec)):
        g = p.g if isinstance(p, PG) else _unfold_rec(p).g
        return _gsum_deliver(g, chan, vals) or [p]
    if isinstance(p, BPar):
        return [
            BPar(l, r)
            for l in bpi_deliver(p.left, chan, vals)
            for r in bpi_deliver(p.right, chan, vals)
        ]
    if isinstance(p, BNu):
        if p.name == chan or p.name in vals:
            p = bsubst(p, {}, frozenset((chan, *vals)))
        return [BNu(p.name, q) for q in bpi_deliver(p.inner, chan, vals)]
    raise TypeError(p)


def _gsum_deliver(g: BG, chan: str, vals) -> list[BP]:
    if isinstance(g, GIn) and g.chan == chan and len(g.vars) == len(vals):
        return [bsubst(g.cont, dict(zip(g.vars, vals)))]
    if isinstance(g, GSum):
        return _gsum_deliver(g.left, chan, vals) + _gsum_deliver(g.right, chan, vals)
    return []


def _gsum_acts(g: BG) -> list[tuple[object, BP]]:
    if isinstance(g, GOut):
        return [(BOut(g.chan, g.vals), g.cont)]
    if isinstance(g, GTau):
        return [(BTAU, g.cont)]
    if isinstance(g, GSum):
        return _gsum_acts(g.left) + _gsum_acts(g.right)
    return []


def bpi_steps(p: BP) -> list[tuple[object, BP]]:
    """Output and silent steps, with broadcast delivery folded in."""
    if isinstance(p, PG):
        return _gsum_acts(p.g)
    if isinstance(p, BPar):
        out = []
        for mine, other, join in (
            (p.left, p.right, BPar),
            (p.right, p.left, lambda r, l: BPar(l, r)),
        ):
            for lab, m2 in bpi_steps(mine):
                if lab is BTAU:
                    out.append((BTAU, join(m2, other)))
                    continue
                if lab.bound:
                    lab, m2 = _bavoid_clash(lab, m2, bfree(other))
                for o2 in bpi_deliver(other, lab.chan, lab.vals):
                    out.append((lab, join(m2, o2)))
        return out
    if isinstance(p, BNu):
        y = p.name
        out = []
        for lab, q in bpi_steps(p.inner):
            if lab is not BTAU and y in lab.bound:
                # an inner name of the same spelling is extruded; y is not
                # free inside, or a sibling would have renamed it apart
                lab, q = _bavoid_clash(lab, q, {y})
            if lab is BTAU:
                out.append((BTAU, BNu(y, q)))
            elif lab.chan == y:
                # a broadcast on a hidden channel is silent outside, and
                # names it had extruded stay restricted
                succ = q
                for b in sorted(lab.bound):
                    succ = BNu(b, succ)
                out.append((BTAU, BNu(y, succ)))
            elif y in lab.vals:
                out.append((BOut(lab.chan, lab.vals, lab.bound | {y}), q))
            else:
                out.append((lab, BNu(y, q)))
        return out
    if isinstance(p, BRec):
        return bpi_steps(_unfold_rec(p))
    raise TypeError(p)


def _bavoid_clash(lab: BOut, origin: BP, outside) -> tuple[BOut, BP]:
    """Rename the names a send extrudes away from ``outside``, the names
    free where the send goes."""
    if lab.bound.isdisjoint(outside):
        return lab, origin
    old = tuple(sorted(lab.bound))
    outside = frozenset(outside).union({lab.chan, *lab.vals}.difference(lab.bound))
    new, origin = _bscope(old, origin, {}, outside)
    ren = dict(zip(old, new))
    chan, *vals = (ren.get(n, n) for n in (lab.chan, *lab.vals))
    return BOut(chan, tuple(vals), frozenset(new)), origin


# ---------------------------------------------------------------------------
# Translation into the attribute calculus


def encode(p: BP) -> tuple[System, Definitions]:
    """Translate a broadcast pi term into an attribute-calculus system.

    Raises ``ValueError`` on a term the translation has no image for.
    """
    enc = _Encoder(p, {})
    return enc.proc(p), enc.defs


def encode_program(p: BP) -> Program:
    sys, defs = encode(p)
    return Program(defs, sys, frozenset())


def _enc_name(n: str, scope: frozenset[str]):
    return Var(n) if n in scope else Lit(Name(n))


class _Encoder:
    """One translation of a term.

    It holds the definitions made so far, the definition name of each
    ``rec`` (a table that later translations of successor terms share,
    so that they call the same definitions), and a supply of fresh
    ``_f`` names that skips every name of the term.  ``scope`` holds the
    names bound by an input or a ``rec`` parameter, which become
    variables; ``hidden`` the restrictions around the component at hand.

    ``comps``, when given, maps (source component, ``hidden``) to its
    translated ``Comp``; the translations of one correspondence check
    share it, so a component that several successors keep is translated
    once and stays the same object.  That is exact up to renaming of
    binders: the ``_f`` names of a stored component skip every name of
    the term it was first translated in, which are all of its own names,
    and an input binds only inside its component.  ``hidden`` is in the
    key because whether ``define`` refuses a ``rec`` depends on it; a
    component that raises is not stored.  ``encode`` shares nothing, so its fresh names stay distinct.

    A shape with no image in the target raises ``ValueError``:
    restriction is system-level there, so it may not occur under a
    prefix; and a definition is closed, so the body of a ``rec`` may not
    mention a name bound outside it.
    """

    def __init__(self, p: BP, recs: dict, comps: dict | None = None):
        self.defs: Definitions = {}
        self.recs = recs
        self.comps = comps
        self.fresh = _supply(p)
        self.counter = itertools.count()
        self.hidden: frozenset[str] = frozenset()
        # the recs around the term being translated, each in its closed
        # form (see ``define``) and with its definition name
        self.enclosing: list[tuple[BRec, str]] = []

    def proc(self, p: BP, hidden: frozenset[str] = frozenset()) -> System:
        if isinstance(p, BPar):
            return SysPar(self.proc(p.left, hidden), self.proc(p.right, hidden))
        if isinstance(p, BNu):
            return Nu(p.name, self.proc(p.inner, hidden | {p.name}))
        if self.comps is None:
            return self.comp(p, hidden)
        key = (p, hidden)
        comp = self.comps.get(key)
        if comp is None:
            comp = self.comps[key] = self.comp(p, hidden)
        return comp

    def comp(self, p: BP, hidden: frozenset[str]) -> Comp:
        self.hidden = hidden
        return Comp(AttributeEnv.of({}), self.cont(p, frozenset()))

    def cont(self, p: BP, scope: frozenset[str]) -> Process:
        """A process below the system level; parallel becomes ``Par``."""
        if isinstance(p, PG):
            return self.guard(p.g, scope)
        if isinstance(p, BPar):
            return Par(self.cont(p.left, scope), self.cont(p.right, scope))
        if isinstance(p, BRec):
            return Call(self.define(p, scope), tuple(_enc_name(a, scope) for a in p.args))
        if isinstance(p, BCall):
            dname = next(d for r, d in reversed(self.enclosing) if r.name == p.name)
            return Call(dname, tuple(_enc_name(a, scope) for a in p.args))
        raise ValueError("restriction under a prefix has no image in the target calculus")

    def define(self, p: BRec, scope: frozenset[str]) -> str:
        """The definition name of a ``rec``; the definition is made on
        first use.

        A rec is known by the form it has once it is a successor term on
        its own: unfolding puts copies of the enclosing recs in place of
        its calls to them.
        """
        closed = p
        for r, _ in self.enclosing:
            closed = _replace_calls(closed, *_copies(r))
        outside = self.hidden | scope
        if outside and not outside.isdisjoint(bfree(p.body).difference(p.params)):
            raise ValueError(
                f"rec {p.name} mentions a name bound outside it; "
                "a definition in the target calculus is closed"
            )
        key = (closed.name, closed.params, closed.body)
        dname = self.recs.get(key)
        if dname is None:
            dname = p.name
            while dname in self.recs.values():
                dname = f"{p.name}_{next(self.counter)}"
            # named before its body, which may hold a rec of the same name
            self.recs[key] = dname
            self.enclosing.append((closed, dname))
            self.defs[dname] = (p.params, self.guard(p.body, frozenset(p.params)))
            self.enclosing.pop()
        return dname

    def guard(self, g: BG, scope: frozenset[str]) -> Process:
        if isinstance(g, GNil):
            return NIL
        if isinstance(g, GOut):
            ch = _enc_name(g.chan, scope)
            exprs = (ch,) + tuple(_enc_name(v, scope) for v in g.vals)
            return Out(exprs, Cmp("=", ch, ch), self.cont(g.cont, scope))
        if isinstance(g, GIn):
            y = next(self.fresh)
            vars_, cont = g.vars, g.cont
            if g.chan in vars_:
                # the variable would capture the channel in the predicate
                z = next(self.fresh)
                vars_ = tuple(z if v == g.chan else v for v in vars_)
                cont = bsubst(cont, {g.chan: z})
            pred = Cmp("=", Var(y), _enc_name(g.chan, scope))
            return In(pred, (y,) + vars_, self.cont(cont, scope | frozenset(vars_)))
        if isinstance(g, GTau):
            return Out((), FF_, self.cont(g.cont, scope))
        if isinstance(g, GSum):
            return Sum(self.guard(g.left, scope), self.guard(g.right, scope))
        raise TypeError(g)


# ---------------------------------------------------------------------------
# Correspondence checking


@dataclass
class Correspondence:
    ok: bool
    checked_pairs: int
    failures: list[str] = field(default_factory=list)
    truncated: bool = False


def _canon_send(names, bound) -> tuple:
    """A send on ``names[0]`` carrying ``names[1:]``, with its extruded
    names renamed ``_n0, _n1, ...`` in order of first occurrence."""
    extruded = dict.fromkeys(n for n in names if n in bound)
    ren = {n: f"_n{i}" for i, n in enumerate(extruded)}
    chan, *vals = (ren.get(n, n) for n in names)
    return ("out", chan, tuple(vals), tuple(ren.values()))


def _canon_bpi_label(lab) -> tuple:
    if lab is BTAU:
        return ("tau",)
    return _canon_send((lab.chan, *lab.vals), lab.bound)


def _canon_abc_label(lab, universe: Universe) -> tuple:
    """Project a target label onto source vocabulary: channel and payload."""
    if lab is TAU:
        return ("tau",)
    vals = lab.values
    if not vals or not all(isinstance(v, Name) for v in vals):
        return ("unexpected", str(vals))
    if fingerprint(lab.pred, universe) != TT_KEY:
        return ("unexpected-pred", str(lab.pred))
    return _canon_send(tuple(v.atom for v in vals), lab.bound)


# pairs ``check_correspondence`` visits before it reports truncation
MAX_PAIRS = 4000


def check_correspondence(p: BP, *, depth: int = 6) -> Correspondence:
    """Lockstep comparison of a source term and its translation.

    At every reached pair the multiset of source steps and target steps
    must agree label by label, and each matched target successor must be
    the translation of the matched source successor up to renaming of
    binders.  Pairs are visited breadth-first, so each is counted at its
    shallowest depth.  One table of translated components serves every
    translation here (see ``_Encoder``), so a successor's untouched
    components are the objects the target side already canonicalised.
    """
    comps: dict = {}
    first = _Encoder(p, {}, comps)
    sys0, defs = first.proc(p), first.defs
    universe = Universe.for_systems([sys0], defs)
    failures: list[str] = []
    seen: set[tuple] = set()
    frontier = deque([(p, sys0, canonicalize(sys0), 0)])
    checked = 0
    truncated = False
    memo: dict = {}

    while frontier:
        src, tgt, canon_tgt, d = frontier.popleft()
        key = (src, canon_tgt)
        if key in seen:
            continue
        if checked == MAX_PAIRS:
            truncated = True
            break
        seen.add(key)
        checked += 1
        if d >= depth:
            truncated = True
            continue

        by_label_src: dict[tuple, list[BP]] = {}
        for lab, q in bpi_steps(src):
            by_label_src.setdefault(_canon_bpi_label(lab), []).append(q)
        by_label_tgt: dict[tuple, list[System]] = {}
        for lab, t in system_steps(tgt, defs, universe, memo):
            by_label_tgt.setdefault(_canon_abc_label(lab, universe), []).append(t)

        if set(by_label_src) != set(by_label_tgt):
            failures.append(
                f"label sets differ at depth {d}: "
                f"source={sorted(by_label_src)} target={sorted(by_label_tgt)}"
            )
            continue

        for lab_key, src_succs in by_label_src.items():
            tgt_succs = by_label_tgt[lab_key]
            if len(src_succs) != len(tgt_succs):
                failures.append(
                    f"branching differs on {lab_key}: "
                    f"{len(src_succs)} source vs {len(tgt_succs)} target"
                )
                continue
            # each target successor is canonicalised once
            unmatched = [(canonicalize(t), t) for t in tgt_succs]
            for q in src_succs:
                canon_q = canonicalize(_Encoder(q, first.recs, comps).proc(q))
                hit = next((i for i, (c, _) in enumerate(unmatched) if c == canon_q), None)
                if hit is None:
                    failures.append(
                        f"no target successor translates source continuation "
                        f"after {lab_key} at depth {d}"
                    )
                else:
                    canon_t, t = unmatched.pop(hit)
                    frontier.append((q, t, canon_t, d + 1))

    return Correspondence(not failures, checked, failures, truncated)


# ---------------------------------------------------------------------------
# Barbs and divergence on both sides


def bpi_barbs(p: BP) -> set[tuple[str, int]]:
    """Channels (with arity) on which an unrestricted send is enabled."""
    out = set()
    for lab, _ in bpi_steps(p):
        if lab is not BTAU and lab.chan not in lab.bound:
            out.add((lab.chan, len(lab.vals)))
    return out


def abc_barbs_as_channels(sys: System, defs: Definitions):
    """Observables of a translated system in source vocabulary."""
    universe = Universe.for_systems([sys], defs)
    out = set()
    for lab, _ in system_steps(sys, defs, universe, {}):
        if isinstance(lab, SOut) and lab.values and isinstance(lab.values[0], Name):
            chan = lab.values[0].atom
            if chan not in lab.bound:
                out.add((chan, len(lab.values) - 1))
    return out


def check_barb_correspondence(p: BP) -> bool:
    sys, defs = encode(p)
    return bpi_barbs(p) == abc_barbs_as_channels(sys, defs)


def _tau_graph(init, steps, is_tau, canon, bound: int):
    """Silent-step cycle search; returns (has_cycle, truncated).

    Depth-first with colours: only a silent step back to a state on the
    current path closes a cycle.  Reaching a finished state again, as
    both interleavings of ``tau.nil | tau.nil`` do, is not a cycle.
    Paths are cut at ``bound`` states, which marks the search truncated.
    """
    on_path, done = 1, 2

    def silent(state):
        return (nxt for lab, nxt in steps(state) if is_tau(lab))

    key = canon(init)
    colour = {key: on_path}
    path = [(key, silent(init))]
    truncated = False
    while path:
        key, succs = path[-1]
        nxt = next(succs, None)
        if nxt is None:
            colour[key] = done
            path.pop()
            continue
        nkey = canon(nxt)
        seen = colour.get(nkey)
        if seen == on_path:
            return True, truncated
        if seen == done:
            continue
        if len(path) >= bound:
            truncated = True
            continue
        colour[nkey] = on_path
        path.append((nkey, silent(nxt)))
    return False, truncated


def bpi_divergent(p: BP, bound: int = 50) -> tuple[bool, bool]:
    return _tau_graph(p, bpi_steps, lambda l: l is BTAU, lambda q: q, bound)


def abc_divergent(sys: System, defs: Definitions, bound: int = 50) -> tuple[bool, bool]:
    universe, memo = Universe.for_systems([sys], defs), {}
    return _tau_graph(
        sys,
        lambda s: system_steps(s, defs, universe, memo),
        lambda l: l is TAU,
        canonicalize,
        bound,
    )


def check_divergence_correspondence(p: BP) -> bool:
    sys, defs = encode(p)
    return bpi_divergent(p)[0] == abc_divergent(sys, defs)[0]


def check_name_invariance(p: BP) -> bool:
    """Translation commutes with injective renaming of free names: a
    suffix on every free name and, with two or more, their rotation."""
    fn = sorted(bfree(p))
    renamings = [{n: f"{n}_r" for n in fn}] if fn else []
    if len(fn) >= 2:
        renamings.append(dict(zip(fn, fn[1:] + fn[:1])))
    encoded, _ = encode(p)
    for sigma in renamings:
        lhs, _ = encode(bsubst(p, sigma))
        if not alpha_equal(lhs, rename(encoded, sigma)):
            return False
    return True
