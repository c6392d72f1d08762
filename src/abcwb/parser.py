"""Concrete syntax and parser for `.abc` files.

Layout of a file::

    # comment
    attrs: role, id, state
    def Explorer() = ...
    system:
      {role := 'explorer', id := 1}: Explorer() || ...

Process syntax: output ``(E, ...)@(Pi).P``, input ``(Pi)(x, ...).P``,
update ``[a := E, ...]P``, awareness ``<Pi>P``, choice ``+``, process
parallel ``|``.  System syntax: ``{a := v, ...}: P``, ``||``, ``!C``,
``nu x C``.  In an expression ``*`` binds tighter than ``+`` and ``-``,
and all three group to the left: ``1 + 2 * 3`` is 7 and ``5 - 2 - 1`` is 2.
In a predicate, ``tt``, ``ff`` or a parenthesised group is the left
operand of a comparison when one of ``= != < <= >= + - *`` follows it,
or when the group does not parse as a predicate, and else a predicate:
``(tt) = x``, ``tt < x`` and ``(x) > 1`` compare, ``<((tt))>P`` does not.
Name literals are quoted (``'qry'``) and end on their line;
a bare identifier in an expression is a bound variable if one is in
scope, else an attribute, which the file must declare somewhere.

One lexer, ``tokenize``, reads both `.abc` and broadcast-pi `.bpi` text,
and both parsers share one token cursor and one ``ParseError``, which
gives a ``line:col``; a ``ResolveError`` is one.  A file is read in one
pass: attributes used before their declaration, and calls to
definitions, are checked at the end of the text, at the token that used
them.  Only ``proc_prefix`` scans ahead, with ``_matching_paren``: an
input ``(Pi)(x, ...).P`` binds variables that ``Pi`` reads, so they come
into scope before ``Pi`` is parsed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .syntax import (
    And,
    Arith,
    Attr,
    AttributeEnv,
    Aware,
    Bang,
    Call,
    Cmp,
    Comp,
    Expression,
    FALSE,
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
    Predicate,
    Process,
    Program,
    Rand,
    RESERVED_NAME,
    Sum,
    SysPar,
    System,
    ThisAttr,
    TRUE,
    TT_,
    TupleV,
    Upd,
    Value,
    Var,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ResolveError(ParseError):
    """Text that parses but does not resolve: an unknown or duplicate
    name, an arity that does not match, unguarded recursion."""


@dataclass(slots=True)
class Token:
    kind: str  # ident, int, name, eof, or the punctuation itself
    text: str  # the lexeme; a name literal keeps its quotes
    line: int
    col: int


# One alternative per token class, tried in order; whitespace and comments
# match no named group.  A name literal ends on its own line.
_TOKEN = re.compile(
    r"(?P<nl>\n)|[ \t\r]+|#[^\n]*"
    r"|(?P<name>'[^'\n]*')|(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>\|\||&&|:=|!=|<=|>=|[(){}\[\]<>,.:@+*|!=-])"
    r"|(?P<bad>.)"
)


def tokenize(text: str) -> list[Token]:
    """The tokens of ``.abc`` or ``.bpi`` text, ending in one ``eof``."""
    toks: list[Token] = []
    line, start = 1, 0  # ``start``: offset of the current line
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "nl":
            line += 1
            start = m.end()
            continue
        lexeme = m.group()
        if kind == "punct":
            kind = lexeme
        elif kind == "bad":
            if lexeme == "'":
                raise ParseError("unterminated name literal", line, m.start() - start + 1)
            raise ParseError(f"unexpected character {lexeme!r}", line, m.start() - start + 1)
        toks.append(Token(kind, lexeme, line, m.start() - start + 1))
    toks.append(Token("eof", "", line, len(text) - start + 1))
    return toks


class _Cursor:
    """A position in the token list of one text, and the token methods
    both recursive-descent parsers share."""

    keywords: tuple[str, ...] = ()  # identifiers that may not name anything

    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.toks.append(self.toks[-1])  # so that peek(1) at the end is eof
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.toks[self.pos]
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text!r}", t.line, t.col)
        self.pos += 1
        return t

    def accept(self, kind: str) -> bool:
        if self.toks[self.pos].kind == kind:
            self.pos += 1
            return True
        return False

    def items(self, item, close: str) -> tuple:
        """Comma-separated ``item()`` results up to the token ``close``,
        which is consumed."""
        out = []
        if self.toks[self.pos].kind != close:
            out.append(item())
            while self.accept(","):
                out.append(item())
        self.expect(close)
        return tuple(out)

    def ident_name(self) -> str:
        t = self.expect("ident")
        if t.text in self.keywords:
            raise ParseError(f"expected an identifier, found {t.text!r}", t.line, t.col)
        if RESERVED_NAME.match(t.text):
            raise ParseError(f"identifier {t.text!r} is reserved", t.line, t.col)
        return t.text


# The tokens that continue a comparison: ``tt``, ``ff`` or a group before
# one is an operand (``>`` is not one: it closes ``<Pi>P``).
_CMP_CONT = frozenset(("=", "!=", "<", "<=", ">=", "+", "-", "*"))


class _Parser(_Cursor):
    """Recursive-descent parser for ``.abc`` text, in one pass.

    Expressions resolve identifiers as they are read: the parser threads
    a stack of bound variables and the set of attributes declared so far
    (the ``attrs:`` header, environment keys and update targets).  A bare
    identifier that is neither bound nor declared yet reads as an
    attribute; ``finish`` refuses it if the text never declares it.
    """

    def __init__(self, text: str, attrs: set[str]):
        super().__init__(text)
        self.attrs = attrs
        self.scope: list[str] = []  # input-bound variables
        self.nuscope: list[str] = []  # restriction-bound names
        self.undeclared: list[Token] = []  # uses of names not declared yet
        self.calls: list[tuple[Token, int]] = []  # each call's name and arity

    def check_calls(self, defs) -> None:
        """Check every call read so far against ``defs`` (name and arity)."""
        for t, arity in self.calls:
            if t.text not in defs:
                raise ResolveError(f"unknown definition {t.text!r}", t.line, t.col)
            params, _ = defs[t.text]
            if len(params) != arity:
                raise ResolveError(
                    f"call to {t.text!r} with {arity} argument(s), "
                    f"definition takes {len(params)}", t.line, t.col
                )

    def finish(self) -> None:
        """Demand the end of the text and a declaration of every
        attribute read before its name was declared."""
        self.expect("eof")
        for t in self.undeclared:
            if t.text not in self.attrs:
                raise ResolveError(
                    f"unresolvable identifier {t.text!r} "
                    "(neither a bound variable nor a declared attribute)", t.line, t.col
                )

    def _matching_paren(self, start: int) -> int:
        """Index of the token after the `)` matching the `(` at ``start``."""
        depth = 0
        i = start
        while True:
            k = self.toks[i].kind
            if k == "(":
                depth += 1
            elif k == ")":
                depth -= 1
                if depth == 0:
                    return i + 1
            elif k == "eof":
                break
            i += 1
        t = self.toks[start]
        raise ParseError("unbalanced parenthesis", t.line, t.col)

    # -- values and expressions --------------------------------------------

    def value(self) -> Value:
        t = self.peek()
        if t.kind == "name":
            self.next()
            name = t.text[1:-1]
            if RESERVED_NAME.match(name):
                raise ParseError(f"name {name!r} is reserved", t.line, t.col)
            return Name(name)
        if t.kind == "int":
            return Int(int(self.next().text))
        if t.kind == "-" and self.peek(1).kind == "int":
            self.next()
            return Int(-int(self.next().text))
        if t.kind == "ident" and t.text in ("tt", "ff"):
            self.next()
            return TRUE if t.text == "tt" else FALSE
        if t.kind == "<":
            self.next()
            return TupleV(self.items(self.value, ">"))
        raise ParseError(f"expected a value, found {t.text!r}", t.line, t.col)

    def expr(self, in_pred: bool = False) -> Expression:
        lhs = self.expr_term(in_pred)
        while self.peek().kind in ("+", "-"):
            lhs = Arith(self.next().kind, lhs, self.expr_term(in_pred))
        return lhs

    def expr_term(self, in_pred: bool) -> Expression:
        lhs = self.expr_atom(in_pred)
        while self.accept("*"):
            lhs = Arith("*", lhs, self.expr_atom(in_pred))
        return lhs

    def expr_atom(self, in_pred: bool) -> Expression:
        t = self.peek()
        if t.kind in ("name", "int") or (t.kind == "-" and self.peek(1).kind == "int"):
            return Lit(self.value())
        if t.kind == "<":
            return Lit(self.value())
        if t.kind == "(":
            self.next()
            e = self.expr(in_pred)
            self.expect(")")
            return e
        if t.kind == "ident":
            if t.text in ("tt", "ff"):
                return Lit(self.value())
            if t.text == "this":
                self.next()
                self.expect(".")
                return ThisAttr(self.ident_name())
            if t.text == "rand":
                if in_pred:
                    raise ParseError("rand is not allowed in a predicate", t.line, t.col)
                self.next()
                self.expect("(")
                b = self.expect("int")
                if int(b.text) == 0:
                    raise ParseError("rand(0) draws from an empty range", b.line, b.col)
                self.expect(")")
                return Rand(int(b.text))
            name = self.ident_name()
            if name in self.scope:
                return Var(name)
            if name in self.nuscope:
                return Lit(Name(name))
            if name not in self.attrs:
                self.undeclared.append(t)
            return Attr(name)
        raise ParseError(f"expected an expression, found {t.text!r}", t.line, t.col)

    # -- predicates --------------------------------------------------------

    def pred(self) -> Predicate:
        lhs = self.pred_and()
        while self.accept("||"):
            lhs = Or(lhs, self.pred_and())
        return lhs

    def pred_and(self) -> Predicate:
        lhs = self.pred_atom()
        while self.accept("&&"):
            lhs = And(lhs, self.pred_atom())
        return lhs

    def pred_atom(self) -> Predicate:
        t = self.peek()
        if t.kind == "!":
            self.next()
            return Not(self.pred_atom())
        if t.kind == "ident" and t.text in ("tt", "ff") and self.peek(1).kind not in _CMP_CONT:
            self.next()
            return TT_ if t.text == "tt" else FF_
        failed = None
        if t.kind == "(":  # a predicate, unless a comparison continues after it
            start, used = self.pos, len(self.undeclared)
            try:
                self.next()
                p = self.pred()
                self.expect(")")
                if self.peek().kind not in _CMP_CONT:
                    return p
            except ParseError as e:
                failed = e
            self.pos = start
            del self.undeclared[used:]
        try:
            lhs = self.expr(True)
            op = self.peek()
            if op.kind not in ("=", "!=", "<", "<=", ">", ">="):
                raise ParseError(f"expected a comparison, found {op.text!r}", op.line, op.col)
            self.next()
            return Cmp(op.kind, lhs, self.expr(True))
        except ParseError as e:
            # of two failed readings of a group, report the one that read further
            if failed is not None and (failed.line, failed.col) > (e.line, e.col):
                raise failed
            raise

    # -- processes ---------------------------------------------------------

    def proc(self) -> Process:
        lhs = self.proc_sum()
        while self.accept("|"):
            lhs = Par(lhs, self.proc_sum())
        return lhs

    def proc_sum(self) -> Process:
        lhs = self.proc_prefix()
        while self.accept("+"):
            lhs = Sum(lhs, self.proc_prefix())
        return lhs

    def proc_prefix(self) -> Process:
        t = self.peek()
        if t.kind == "int" and t.text == "0":
            self.next()
            return NIL
        if t.kind == "[":
            self.next()
            assigns = [self.assign()]
            while self.accept(","):
                assigns.append(self.assign())
            self.expect("]")
            return Upd(tuple(assigns), self.proc_prefix())
        if t.kind == "<":
            self.next()
            p = self.pred()
            self.expect(">")
            return Aware(p, self.proc_prefix())
        if t.kind == "(":
            after = self._matching_paren(self.pos)
            nxt = self.toks[after].kind
            if nxt == "@":
                # output prefix (E, ...)@(Pi).P
                self.next()
                exprs = self.items(self.expr, ")")
                self.expect("@")
                self.expect("(")
                pi = self.pred()
                self.expect(")")
                self.expect(".")
                return Out(exprs, pi, self.proc_prefix())
            if nxt == "(":
                # input prefix (Pi)(x, ...).P
                self.next()
                pi_start = self.pos
                # bind the variables before resolving the predicate
                self.pos = after
                self.expect("(")
                vars_ = self.items(self.ident_name, ")")
                if len(set(vars_)) != len(vars_):
                    raise ResolveError("input variables must be pairwise distinct", t.line, t.col)
                after_vars = self.pos
                self.pos = pi_start
                self.scope.extend(vars_)
                pi = self.pred()
                self.expect(")")
                self.pos = after_vars
                self.expect(".")
                cont = self.proc_prefix()
                del self.scope[len(self.scope) - len(vars_) :]
                return In(pi, vars_, cont)
            # parenthesized process
            self.next()
            p = self.proc()
            self.expect(")")
            return p
        if t.kind == "ident":
            name = self.ident_name()
            args = self.items(self.expr, ")") if self.accept("(") else ()
            self.calls.append((t, len(args)))
            return Call(name, args)
        raise ParseError(f"expected a process, found {t.text!r}", t.line, t.col)

    def assign(self) -> tuple[str, Expression]:
        if self.peek().kind == "ident" and self.peek().text == "this":
            self.next()
            self.expect(".")
        a = self.ident_name()
        self.attrs.add(a)  # an update target is implicitly a declared attribute
        self.expect(":=")
        return (a, self.expr())

    # -- systems -----------------------------------------------------------

    def system(self) -> System:
        lhs = self.system_atom()
        while self.accept("||"):
            lhs = SysPar(lhs, self.system_atom())
        return lhs

    def system_atom(self) -> System:
        t = self.peek()
        if t.kind == "!":
            self.next()
            return Bang(self.system_atom())
        if t.kind == "ident" and t.text == "nu":
            self.next()
            name = self.ident_name()
            self.nuscope.append(name)
            inner = self.system_atom()
            self.nuscope.pop()
            return Nu(name, inner)
        if t.kind == "{":
            self.next()
            bindings = self.items(self.env_binding, "}")
            if len({a for a, _ in bindings}) != len(bindings):
                raise ResolveError("an environment binds an attribute twice", t.line, t.col)
            self.expect(":")
            for a, _ in bindings:
                self.attrs.add(a)
            return Comp(AttributeEnv.of(bindings), self.proc_prefix())
        if t.kind == "(":
            self.next()
            s = self.system()
            self.expect(")")
            return s
        raise ParseError(f"expected a system, found {t.text!r}", t.line, t.col)

    def env_binding(self) -> tuple[str, Value]:
        a = self.ident_name()
        self.expect(":=")
        return (a, self.value())


def parse_program(text: str) -> Program:
    """Parse a full `.abc` file into a resolved program."""
    p = _Parser(text, set())
    if p.peek().text == "attrs" and p.peek(1).kind == ":":
        p.pos += 2
        p.attrs.add(p.ident_name())
        while p.accept(","):
            p.attrs.add(p.ident_name())

    defs: dict[str, tuple[tuple[str, ...], Process]] = {}
    where: dict[str, Token] = {}  # each definition's name token
    while p.peek().text == "def":
        p.next()
        t = p.peek()
        name = p.ident_name()
        p.expect("(")
        params = p.items(p.ident_name, ")")
        p.expect("=")
        if name in defs:
            raise ResolveError(f"duplicate definition {name!r}", t.line, t.col)
        if len(set(params)) != len(params):
            raise ResolveError(f"parameters of {name!r} must be pairwise distinct", t.line, t.col)
        p.scope.extend(params)
        body = p.proc()
        del p.scope[len(p.scope) - len(params) :]
        defs[name] = (params, body)
        where[name] = t

    t = p.peek()
    if t.text != "system":
        raise ParseError("expected a 'system:' block", t.line, t.col)
    p.next()
    p.expect(":")
    main = p.system()
    p.finish()
    p.check_calls(defs)
    _check_guarded(defs, where)
    return Program(defs, main, frozenset(p.attrs))


def _check_guarded(defs, where) -> None:
    """Refuse a definition that can reach a call to itself before any
    send or input prefix: stepping it would unfold the call forever."""
    calls = {name: _unguarded_calls(body) for name, (_, body) in defs.items()}
    for name, t in where.items():
        seen, todo = set(), list(calls[name])
        while todo:
            callee = todo.pop()
            if callee == name:
                raise ResolveError(
                    f"definition {name!r} can call itself "
                    "before any send or input (unguarded recursion)", t.line, t.col
                )
            if callee not in seen:
                seen.add(callee)
                todo.extend(calls[callee])


def _unguarded_calls(proc: Process) -> set[str]:
    """The definitions ``proc`` calls before any send or input prefix;
    updates, awareness, ``+`` and ``|`` guard nothing."""
    kind = type(proc)
    if kind is Call:
        return {proc.name}
    if kind is Upd or kind is Aware:
        return _unguarded_calls(proc.cont)
    if kind is Sum or kind is Par:
        return _unguarded_calls(proc.left) | _unguarded_calls(proc.right)
    return set()  # a prefix guards its continuation; nil calls nothing


def parse_system(text: str, defs=None, attrs=()) -> System:
    """Parse a bare system term, one with no ``attrs:`` header,
    definitions or ``system:`` block around it.

    ``attrs`` declares attributes beyond those the term's environments
    and updates declare, and each call must match a definition of
    ``defs`` in name and arity.
    """
    p = _Parser(text, set(attrs))
    sys = p.system()
    p.finish()
    p.check_calls(defs or {})
    return sys


def parse_process(text: str, attrs=(), scope=()) -> Process:
    p = _Parser(text, set(attrs))
    p.scope.extend(scope)
    proc = p.proc()
    p.finish()
    return proc
