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
unsatisfiable predicate.

``check_correspondence`` replays both sides in lockstep and demands a
bijection between their steps, with translated continuations matching
the target's successors up to renaming of binders.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from .attributes import Universe, fingerprint, fingerprint_tt
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


def bfree(p, bound: frozenset = frozenset()) -> frozenset[str]:
    if isinstance(p, GNil):
        return frozenset()
    if isinstance(p, GIn):
        out = frozenset() if p.chan in bound else frozenset((p.chan,))
        return out | bfree(p.cont, bound | frozenset(p.vars))
    if isinstance(p, GOut):
        out = frozenset(n for n in (p.chan, *p.vals) if n not in bound)
        return out | bfree(p.cont, bound)
    if isinstance(p, GTau):
        return bfree(p.cont, bound)
    if isinstance(p, GSum):
        return bfree(p.left, bound) | bfree(p.right, bound)
    if isinstance(p, PG):
        return bfree(p.g, bound)
    if isinstance(p, BPar):
        return bfree(p.left, bound) | bfree(p.right, bound)
    if isinstance(p, BNu):
        return bfree(p.inner, bound | {p.name})
    if isinstance(p, BRec):
        inner = bfree(p.body, bound | frozenset(p.params))
        return inner | frozenset(a for a in p.args if a not in bound)
    if isinstance(p, BCall):
        return frozenset(a for a in p.args if a not in bound)
    raise TypeError(p)


_FRESH = itertools.count()


def _bfresh(avoid) -> str:
    while True:
        cand = f"_f{next(_FRESH)}"
        if cand not in avoid:
            return cand


def bsubst(p, sub: dict[str, str]):
    """Capture-avoiding name-for-name substitution."""
    if not sub:
        return p

    def s(n: str) -> str:
        return sub.get(n, n)

    if isinstance(p, GNil):
        return p
    if isinstance(p, GIn):
        inner = {k: v for k, v in sub.items() if k not in p.vars}
        vars_ = p.vars
        cont = p.cont
        clash = frozenset(vars_) & frozenset(inner.values())
        for v in sorted(clash):
            fresh = _bfresh(bfree(cont) | set(inner) | set(inner.values()) | set(vars_))
            cont = bsubst(cont, {v: fresh})
            vars_ = tuple(fresh if x == v else x for x in vars_)
        return GIn(s(p.chan), vars_, bsubst(cont, inner))
    if isinstance(p, GOut):
        return GOut(s(p.chan), tuple(s(v) for v in p.vals), bsubst(p.cont, sub))
    if isinstance(p, GTau):
        return GTau(bsubst(p.cont, sub))
    if isinstance(p, GSum):
        return GSum(bsubst(p.left, sub), bsubst(p.right, sub))
    if isinstance(p, PG):
        return PG(bsubst(p.g, sub))
    if isinstance(p, BPar):
        return BPar(bsubst(p.left, sub), bsubst(p.right, sub))
    if isinstance(p, BNu):
        inner_sub = {k: v for k, v in sub.items() if k != p.name}
        name, inner = p.name, p.inner
        if name in inner_sub.values():
            fresh = _bfresh(bfree(inner) | set(inner_sub) | set(inner_sub.values()))
            inner = bsubst(inner, {name: fresh})
            name = fresh
        return BNu(name, bsubst(inner, inner_sub))
    if isinstance(p, BRec):
        inner_sub = {k: v for k, v in sub.items() if k not in p.params}
        return BRec(
            p.name,
            p.params,
            bsubst(p.body, inner_sub),
            tuple(s(a) for a in p.args),
        )
    if isinstance(p, BCall):
        return BCall(p.name, tuple(s(a) for a in p.args))
    raise TypeError(p)


# ---------------------------------------------------------------------------
# Parser for .bpi terms


class BpiParseError(Exception):
    pass


_BIDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _btokens(text: str) -> list[str]:
    toks = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        m = _BIDENT.match(text, i)
        if m:
            toks.append(m.group())
            i = m.end()
            continue
        if c in "()<>,.|+@":
            toks.append(c)
            i += 1
            continue
        raise BpiParseError(f"unexpected character {c!r} at offset {i}")
    toks.append("$")
    return toks


class _BParser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self, k=0):
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, t):
        got = self.next()
        if got != t:
            raise BpiParseError(f"expected {t!r}, found {got!r}")
        return got

    def proc(self) -> BP:
        lhs = self.proc_atom()
        while self.peek() == "|":
            self.next()
            lhs = BPar(lhs, self.proc_atom())
        return lhs

    def proc_atom(self) -> BP:
        t = self.peek()
        if t == "nu":
            self.next()
            name = self.ident()
            return BNu(name, self.proc_atom())
        if t == "rec":
            self.next()
            name = self.ident()
            params = self.name_list("(", ")")
            self.expect(".")
            body = self.gsum()
            self.expect("@")
            args = self.name_list("(", ")")
            if len(args) != len(params):
                raise BpiParseError(f"rec {name}: arity mismatch")
            return BRec(name, params, body, args)
        if t == "(":
            self.next()
            p = self.proc()
            self.expect(")")
            return p
        if t == "nil":
            self.next()
            return BNIL
        # an identifier either starts a prefix or is a process constant call
        if self._is_prefix_start():
            return PG(self.gsum())
        name = self.ident()
        args = self.name_list("(", ")") if self.peek() == "(" else ()
        return BCall(name, tuple(args))

    def _is_prefix_start(self) -> bool:
        t, n = self.peek(), self.peek(1)
        if t == "tau":
            return True
        return _IDENTB.match(t) is not None and n in ("(", "<") and self._prefix_like()

    def _prefix_like(self) -> bool:
        # a(x).P and a<v>.P have a "." after the closing bracket; a call
        # A(x) does not
        depth = 0
        i = self.pos + 1
        open_, close = (("(", ")") if self.peek(1) == "(" else ("<", ">"))
        if self.peek(1) == "<":
            return True  # only prefixes use angle brackets
        while i < len(self.toks):
            if self.toks[i] == open_:
                depth += 1
            elif self.toks[i] == close:
                depth -= 1
                if depth == 0:
                    return self.toks[i + 1] == "."
            i += 1
        return False

    def gsum(self) -> BG:
        lhs = self.prefix()
        while self.peek() == "+":
            self.next()
            lhs = GSum(lhs, self.prefix())
        return lhs

    def prefix(self) -> BG:
        t = self.peek()
        if t == "nil":
            self.next()
            return GNil()
        if t == "tau":
            self.next()
            self.expect(".")
            return GTau(self.proc_atom())
        if t == "(":
            self.next()
            g = self.gsum()
            self.expect(")")
            return g
        chan = self.ident()
        if self.peek() == "(":
            vars_ = self.name_list("(", ")")
            if len(set(vars_)) != len(vars_):
                raise BpiParseError("input variables must be distinct")
            self.expect(".")
            return GIn(chan, tuple(vars_), self.proc_atom())
        if self.peek() == "<":
            vals = self.name_list("<", ">")
            self.expect(".")
            return GOut(chan, tuple(vals), self.proc_atom())
        raise BpiParseError(f"expected a prefix after {chan!r}")

    def ident(self) -> str:
        t = self.next()
        if _IDENTB.match(t) is None or t in ("nu", "rec", "tau", "nil"):
            raise BpiParseError(f"expected an identifier, found {t!r}")
        return t

    def name_list(self, open_, close) -> tuple[str, ...]:
        self.expect(open_)
        out = []
        if self.peek() != close:
            out.append(self.ident())
            while self.peek() == ",":
                self.next()
                out.append(self.ident())
        self.expect(close)
        return tuple(out)


_IDENTB = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def parse_bpi(text: str) -> BP:
    p = _BParser(_btokens(text))
    term = p.proc()
    if p.peek() != "$":
        raise BpiParseError(f"trailing input at token {p.peek()!r}")
    _check_calls(term, {})
    return term


def _check_calls(p, recs: dict[str, int]):
    if isinstance(p, (GNil,)):
        return
    if isinstance(p, (GIn, GOut, GTau)):
        _check_calls(p.cont, recs)
        return
    if isinstance(p, GSum):
        _check_calls(p.left, recs)
        _check_calls(p.right, recs)
        return
    if isinstance(p, PG):
        _check_calls(p.g, recs)
        return
    if isinstance(p, BPar):
        _check_calls(p.left, recs)
        _check_calls(p.right, recs)
        return
    if isinstance(p, BNu):
        _check_calls(p.inner, recs)
        return
    if isinstance(p, BRec):
        _check_calls(p.body, {**recs, p.name: len(p.params)})
        return
    if isinstance(p, BCall):
        if p.name not in recs:
            raise BpiParseError(f"call to unknown recursion variable {p.name!r}")
        if recs[p.name] != len(p.args):
            raise BpiParseError(f"call to {p.name!r} with wrong arity")
        return
    raise TypeError(p)


# ---------------------------------------------------------------------------
# Oracle semantics (independent of the attribute calculus)


@dataclass(frozen=True)
class BOut:
    chan: str
    vals: tuple[str, ...]
    bound: frozenset[str] = frozenset()


@dataclass(frozen=True)
class BIn:
    chan: str
    vals: tuple[str, ...]


class BTauL:
    def __repr__(self):
        return "BTAU"


BTAU = BTauL()


def _unfold_rec(p: BRec) -> BP:
    body = PG(p.body)
    # the recursion variable stays callable inside its own body
    return _instantiate(body, p.name, p.params, p.body, dict(zip(p.params, p.args)))


def _instantiate(term, rname, rparams, rbody, sub):
    """Substitute args and replace recursive calls with fresh BRec nodes."""
    term = _replace_calls(term, rname, rparams, rbody)
    return bsubst(term, {k: v for k, v in sub.items() if k != v})


def _replace_calls(p, rname, rparams, rbody):
    if isinstance(p, GNil):
        return p
    if isinstance(p, GIn):
        return GIn(p.chan, p.vars, _replace_calls(p.cont, rname, rparams, rbody))
    if isinstance(p, GOut):
        return GOut(p.chan, p.vals, _replace_calls(p.cont, rname, rparams, rbody))
    if isinstance(p, GTau):
        return GTau(_replace_calls(p.cont, rname, rparams, rbody))
    if isinstance(p, GSum):
        return GSum(
            _replace_calls(p.left, rname, rparams, rbody),
            _replace_calls(p.right, rname, rparams, rbody),
        )
    if isinstance(p, PG):
        return PG(_replace_calls(p.g, rname, rparams, rbody))
    if isinstance(p, BPar):
        return BPar(
            _replace_calls(p.left, rname, rparams, rbody),
            _replace_calls(p.right, rname, rparams, rbody),
        )
    if isinstance(p, BNu):
        return BNu(p.name, _replace_calls(p.inner, rname, rparams, rbody))
    if isinstance(p, BRec):
        if p.name == rname:
            return p  # shadowed by the inner recursion
        return BRec(
            p.name,
            p.params,
            _replace_calls(p.body, rname, rparams, rbody),
            p.args,
        )
    if isinstance(p, BCall):
        if p.name == rname:
            return BRec(rname, rparams, rbody, p.args)
        return p
    raise TypeError(p)


def bpi_deliver(p: BP, chan: str, vals: tuple[str, ...]) -> list[BP]:
    """All ways a process absorbs one broadcast; never empty.

    A listener on the right channel with the right arity must take the
    message; everyone else stays put.
    """
    if isinstance(p, PG):
        outcomes = _gsum_deliver(p.g, chan, vals)
        return outcomes if outcomes else [p]
    if isinstance(p, BPar):
        return [
            BPar(l, r)
            for l in bpi_deliver(p.left, chan, vals)
            for r in bpi_deliver(p.right, chan, vals)
        ]
    if isinstance(p, BNu):
        name, inner = p.name, p.inner
        if name == chan or name in vals:
            fresh = _bfresh(bfree(inner) | {chan, *vals, name})
            inner = bsubst(inner, {name: fresh})
            name = fresh
        return [BNu(name, q) for q in bpi_deliver(inner, chan, vals)]
    if isinstance(p, BRec):
        return bpi_deliver(_unfold_rec(p), chan, vals)
    if isinstance(p, BCall):
        raise ValueError(f"unbound recursion variable {p.name!r}")
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
        for lab, l2 in bpi_steps(p.left):
            if lab is BTAU:
                out.append((BTAU, BPar(l2, p.right)))
            else:
                lab, l2, sibling = _bavoid_clash(lab, l2, p.right)
                for r2 in bpi_deliver(sibling, lab.chan, lab.vals):
                    out.append((lab, BPar(l2, r2)))
        for lab, r2 in bpi_steps(p.right):
            if lab is BTAU:
                out.append((BTAU, BPar(p.left, r2)))
            else:
                lab, r2, sibling = _bavoid_clash(lab, r2, p.left)
                for l2 in bpi_deliver(sibling, lab.chan, lab.vals):
                    out.append((lab, BPar(l2, r2)))
        return out
    if isinstance(p, BNu):
        y = p.name
        out = []
        for lab, q in bpi_steps(p.inner):
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
    if isinstance(p, BCall):
        raise ValueError(f"unbound recursion variable {p.name!r}")
    raise TypeError(p)


def _bavoid_clash(lab: BOut, origin: BP, sibling: BP):
    clashing = lab.bound & bfree(sibling)
    if not clashing:
        return lab, origin, sibling
    chan, vals, bound = lab.chan, list(lab.vals), set(lab.bound)
    for b in sorted(clashing):
        fresh = _bfresh(bfree(sibling) | bfree(origin) | {chan, *vals} | bound)
        origin = bsubst(origin, {b: fresh})
        vals = [fresh if v == b else v for v in vals]
        if chan == b:
            chan = fresh
        bound.discard(b)
        bound.add(fresh)
    return BOut(chan, tuple(vals), frozenset(bound)), origin, sibling


# ---------------------------------------------------------------------------
# Translation into the attribute calculus


def encode(p: BP) -> tuple[System, Definitions]:
    """Translate a broadcast pi term into an attribute-calculus system."""
    defs: Definitions = {}
    counter = itertools.count()
    sys = _enc_proc(p, frozenset(), defs, counter)
    return sys, defs


def encode_program(p: BP) -> Program:
    sys, defs = encode(p)
    return Program(defs, sys, frozenset())


def _enc_name(n: str, scope: frozenset[str]):
    return Var(n) if n in scope else Lit(Name(n))


def _enc_proc(p: BP, scope: frozenset[str], defs: Definitions, counter) -> System:
    if isinstance(p, PG):
        return Comp(AttributeEnv.of({}), _enc_guard(p.g, scope, defs, counter))
    if isinstance(p, BPar):
        return SysPar(
            _enc_proc(p.left, scope, defs, counter),
            _enc_proc(p.right, scope, defs, counter),
        )
    if isinstance(p, BNu):
        return Nu(p.name, _enc_proc(p.inner, scope, defs, counter))
    if isinstance(p, BRec):
        dname = f"{p.name}_{next(counter)}" if p.name in defs else p.name
        body = p.body if dname == p.name else _rename_rec(p.body, p.name, dname)
        defs[dname] = (
            p.params,
            _enc_guard(body, scope | frozenset(p.params), defs, counter),
        )
        return Comp(
            AttributeEnv.of({}),
            Call(dname, tuple(_enc_name(a, scope) for a in p.args)),
        )
    if isinstance(p, BCall):
        return Comp(
            AttributeEnv.of({}),
            Call(p.name, tuple(_enc_name(a, scope) for a in p.args)),
        )
    raise TypeError(p)


def _rename_rec(g, old: str, new: str):
    """Rename a recursion variable (not a channel name) in a guarded body."""
    if isinstance(g, GNil):
        return g
    if isinstance(g, GIn):
        return GIn(g.chan, g.vars, _rename_rec_p(g.cont, old, new))
    if isinstance(g, GOut):
        return GOut(g.chan, g.vals, _rename_rec_p(g.cont, old, new))
    if isinstance(g, GTau):
        return GTau(_rename_rec_p(g.cont, old, new))
    if isinstance(g, GSum):
        return GSum(_rename_rec(g.left, old, new), _rename_rec(g.right, old, new))
    raise TypeError(g)


def _rename_rec_p(p, old: str, new: str):
    if isinstance(p, PG):
        return PG(_rename_rec(p.g, old, new))
    if isinstance(p, BPar):
        return BPar(_rename_rec_p(p.left, old, new), _rename_rec_p(p.right, old, new))
    if isinstance(p, BNu):
        return BNu(p.name, _rename_rec_p(p.inner, old, new))
    if isinstance(p, BRec):
        if p.name == old:
            return p
        return BRec(p.name, p.params, _rename_rec(p.body, old, new), p.args)
    if isinstance(p, BCall):
        return BCall(new if p.name == old else p.name, p.args)
    raise TypeError(p)


def _enc_guard(g: BG, scope: frozenset[str], defs, counter) -> Process:
    if isinstance(g, GNil):
        return NIL
    if isinstance(g, GOut):
        ch = _enc_name(g.chan, scope)
        exprs = (ch,) + tuple(_enc_name(v, scope) for v in g.vals)
        pred = Cmp("=", ch, ch)
        return Out(exprs, pred, _enc_cont(g.cont, scope, defs, counter))
    if isinstance(g, GIn):
        y = f"_f{next(_FRESH)}"
        pred = Cmp("=", Var(y), _enc_name(g.chan, scope))
        cont = _enc_cont(g.cont, scope | frozenset(g.vars), defs, counter)
        return In(pred, (y,) + g.vars, cont)
    if isinstance(g, GTau):
        return Out((), FF_, _enc_cont(g.cont, scope, defs, counter))
    if isinstance(g, GSum):
        return Sum(
            _enc_guard(g.left, scope, defs, counter),
            _enc_guard(g.right, scope, defs, counter),
        )
    raise TypeError(g)


def _enc_cont(p: BP, scope: frozenset[str], defs, counter) -> Process:
    """Continuation of a prefix: stays at process level when possible.

    Parallel and restriction below a prefix have no process-level image
    in the target (parallel components and restriction are system-level
    there), so those shapes are rejected; the correspondence corpus
    keeps parallelism and restriction at the top or directly under
    replication-free contexts, which is the standard normal form for
    this translation.
    """
    if isinstance(p, PG):
        return _enc_guard(p.g, scope, defs, counter)
    if isinstance(p, BRec):
        sys = _enc_proc(p, scope, defs, counter)
        return sys.proc
    if isinstance(p, BCall):
        return Call(p.name, tuple(_enc_name(a, scope) for a in p.args))
    if isinstance(p, BPar):
        inner_l = _enc_cont(p.left, scope, defs, counter)
        inner_r = _enc_cont(p.right, scope, defs, counter)
        return Par(inner_l, inner_r)
    raise ValueError(
        "restriction under a prefix has no image in the target calculus"
    )


# ---------------------------------------------------------------------------
# Correspondence checking


@dataclass
class Correspondence:
    ok: bool
    checked_pairs: int
    failures: list[str] = field(default_factory=list)
    truncated: bool = False


def _canon_bpi_label(lab) -> tuple:
    if lab is BTAU:
        return ("tau",)
    order = [n for n in (lab.chan, *lab.vals) if n in lab.bound]
    seen: list[str] = []
    for n in order:
        if n not in seen:
            seen.append(n)
    ren = {n: f"_n{i}" for i, n in enumerate(seen)}
    chan = ren.get(lab.chan, lab.chan)
    vals = tuple(ren.get(v, v) for v in lab.vals)
    return ("out", chan, vals, tuple(ren[n] for n in seen))


def _canon_abc_label(lab, universe: Universe) -> tuple:
    """Project a target label onto source vocabulary: channel and payload."""
    if lab is TAU:
        return ("tau",)
    assert isinstance(lab, SOut)
    vals = lab.values
    if not vals or not isinstance(vals[0], Name):
        return ("unexpected", str(vals))
    if fingerprint(lab.pred, universe) != fingerprint_tt(universe):
        return ("unexpected-pred", str(lab.pred))
    names = []
    for v in vals:
        assert isinstance(v, Name)
        names.append(v.atom)
    order = [n for n in names if n in lab.bound]
    seen: list[str] = []
    for n in order:
        if n not in seen:
            seen.append(n)
    ren = {n: f"_n{i}" for i, n in enumerate(seen)}
    mapped = [ren.get(n, n) for n in names]
    return ("out", mapped[0], tuple(mapped[1:]), tuple(ren[n] for n in seen))


def check_correspondence(
    p: BP, *, depth: int = 6, max_pairs: int = 4000
) -> Correspondence:
    """Lockstep comparison of a source term and its translation.

    At every reached pair the multiset of source steps and target steps
    must agree label by label, and each matched target successor must be
    the translation of the matched source successor up to renaming of
    binders.
    """
    sys0, defs = encode(p)
    universe = Universe.for_systems([sys0])
    failures: list[str] = []
    seen: set[tuple] = set()
    frontier: list[tuple[BP, System, int]] = [(p, sys0, 0)]
    checked = 0
    truncated = False

    while frontier:
        src, tgt, d = frontier.pop()
        key = (src, canonicalize(tgt))
        if key in seen:
            continue
        seen.add(key)
        checked += 1
        if checked > max_pairs:
            truncated = True
            break
        if d >= depth:
            truncated = True
            continue

        src_steps = bpi_steps(src)
        tgt_steps = system_steps(tgt, defs, universe)

        by_label_src: dict[tuple, list[BP]] = {}
        for lab, q in src_steps:
            by_label_src.setdefault(_canon_bpi_label(lab), []).append(q)
        by_label_tgt: dict[tuple, list[System]] = {}
        for lab, t in tgt_steps:
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
            unmatched = list(tgt_succs)
            for q in src_succs:
                enc_q, _ = encode(q)
                hit = None
                for t in unmatched:
                    if alpha_equal(canonicalize(enc_q), canonicalize(t)):
                        hit = t
                        break
                if hit is None:
                    failures.append(
                        f"no target successor translates source continuation "
                        f"after {lab_key} at depth {d}"
                    )
                else:
                    unmatched.remove(hit)
                    frontier.append((q, hit, d + 1))

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


def abc_barbs_as_channels(sys: System, defs: Definitions, universe=None):
    """Observables of a translated system in source vocabulary."""
    if universe is None:
        universe = Universe.for_systems([sys])
    out = set()
    for lab, _ in system_steps(sys, defs, universe):
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
    universe = Universe.for_systems([sys])
    return _tau_graph(
        sys,
        lambda s: system_steps(s, defs, universe),
        lambda l: l is TAU,
        canonicalize,
        bound,
    )


def check_divergence_correspondence(p: BP, bound: int = 50) -> bool:
    sys, defs = encode(p)
    return bpi_divergent(p, bound)[0] == abc_divergent(sys, defs, bound)[0]


def check_name_invariance(p: BP, renamings=None) -> bool:
    """Translation commutes with injective renaming of free names."""
    if renamings is None:
        fn = sorted(bfree(p))
        renamings = []
        if fn:
            renamings.append({n: f"{n}_r" for n in fn})
            if len(fn) >= 2:
                rot = dict(zip(fn, fn[1:] + fn[:1]))
                renamings.append(rot)
    from .syntax import rename_free as _rf

    for sigma in renamings:
        lhs, _ = encode(bsubst(p, sigma))
        rhs, _ = encode(p)
        # simultaneous renaming: go through temporaries so chained maps
        # like a->b, b->a do not collapse
        temps = {old: f"_f{next(_FRESH)}" for old in sigma}
        for old, tmp in temps.items():
            rhs = _rf(rhs, old, tmp)
        for old, new in sigma.items():
            rhs = _rf(rhs, temps[old], new)
        if not alpha_equal(lhs, rhs):
            return False
    return True
