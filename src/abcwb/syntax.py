"""Abstract syntax for the attribute-based broadcast calculus.

Components carry an attribute environment and a process; processes
communicate by broadcast filtered through predicates over attributes.
All nodes are immutable (frozen, slotted dataclasses) and safe to share.

Every node also has three cache slots that are filled on first use and
never change afterwards: its structural hash (leaves, whose hash costs
no more than the lookup, leave it unused), its free names and whether it
contains a binder.  They are not fields, so equality, ``repr`` and
construction are unchanged; a term built once and shared by many states
pays for each of them once.

A single namespace of *names* is used throughout: a name can occur as a
value atom (``Name``), as an expression placeholder awaiting substitution
(``Var``), as an input binder, or as a restriction binder.  Identifiers
matching ``_n<k>``, ``_v<k>``, ``_f<k>`` and ``_w<k>`` are reserved for
internal canonical/fresh names and rejected by the parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union


RESERVED_NAME = re.compile(r"_[nvfw]\d+$")


class _Node:
    """Base of every syntax node: the per-object caches (see module doc)."""

    __slots__ = ("_hash", "_free", "_binders")


# A node without child nodes: its hash is as cheap as a cache lookup, so
# its ``_hash`` slot stays unused.
_leaf = dataclass(frozen=True, slots=True)


def _node(cls):
    """Frozen slotted dataclass whose structural hash is computed once."""
    cls = dataclass(frozen=True, slots=True)(cls)
    structural = cls.__hash__

    def __hash__(self):
        # an unset slot reads as the default: cheaper than catching the
        # AttributeError, which matters because every new node misses once
        h = getattr(self, "_hash", None)
        if h is None:
            h = structural(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    return cls


# ---------------------------------------------------------------------------
# Values


class Value(_Node):
    """Base class for message and attribute values."""

    __slots__ = ()


@_leaf
class Name(Value):
    atom: str

    def __str__(self) -> str:
        return f"'{self.atom}'"


@_leaf
class Int(Value):
    n: int

    def __str__(self) -> str:
        return str(self.n)


@_leaf
class Bool(Value):
    b: bool

    def __str__(self) -> str:
        return "tt" if self.b else "ff"


@_node
class TupleV(Value):
    items: tuple[Value, ...]

    def __str__(self) -> str:
        return "<" + ", ".join(str(v) for v in self.items) + ">"


TRUE = Bool(True)
FALSE = Bool(False)


def value_sort_key(v: Value):
    """Deterministic total order over values, used for enumeration."""
    if isinstance(v, Bool):
        return (0, v.b)
    if isinstance(v, Int):
        return (1, v.n)
    if isinstance(v, Name):
        return (2, v.atom)
    if isinstance(v, TupleV):
        return (3, tuple(value_sort_key(i) for i in v.items))
    raise TypeError(v)


def names_in_value(v: Value) -> frozenset[str]:
    """Names occurring in a value; a value binds nothing, so these are its
    free names (cached on the value)."""
    return free_names(v)


# ---------------------------------------------------------------------------
# Expressions


class Expression(_Node):
    __slots__ = ()


@_node
class Lit(Expression):
    value: Value


@_leaf
class Var(Expression):
    name: str


@_leaf
class Attr(Expression):
    attr: str


@_leaf
class ThisAttr(Expression):
    attr: str


@_node
class Arith(Expression):
    op: str  # one of + - *
    lhs: Expression
    rhs: Expression


@_leaf
class Rand(Expression):
    bound: int  # uniform draw from [0, bound)


# ---------------------------------------------------------------------------
# Predicates


class Predicate(_Node):
    __slots__ = ()


@_leaf
class TT(Predicate):
    pass


@_leaf
class FF(Predicate):
    pass


@_node
class Cmp(Predicate):
    op: str  # one of = != < <= > >=
    lhs: Expression
    rhs: Expression


@_node
class And(Predicate):
    lhs: Predicate
    rhs: Predicate


@_node
class Or(Predicate):
    lhs: Predicate
    rhs: Predicate


@_node
class Not(Predicate):
    inner: Predicate


TT_ = TT()
FF_ = FF()


# ---------------------------------------------------------------------------
# Processes


class Process(_Node):
    __slots__ = ()


@_leaf
class Nil(Process):
    pass


@_node
class Out(Process):
    exprs: tuple[Expression, ...]
    pred: Predicate
    cont: Process


@_node
class In(Process):
    pred: Predicate
    vars: tuple[str, ...]
    cont: Process


@_node
class Upd(Process):
    assigns: tuple[tuple[str, Expression], ...]
    cont: Process


@_node
class Aware(Process):
    pred: Predicate
    cont: Process


@_node
class Sum(Process):
    left: Process
    right: Process


@_node
class Par(Process):
    left: Process
    right: Process


@_node
class Call(Process):
    name: str
    args: tuple[Expression, ...] = ()


NIL = Nil()


# ---------------------------------------------------------------------------
# Attribute environments

UNDEFINED = object()  # distinguishable "unbound attribute" outcome


@_node
class AttributeEnv(_Node):
    """Partial map from attribute identifiers to values (sorted, immutable)."""

    bindings: tuple[tuple[str, Value], ...] = ()

    @staticmethod
    def of(mapping: Mapping[str, Value] | Iterable[tuple[str, Value]] = ()) -> "AttributeEnv":
        items = dict(mapping)
        return AttributeEnv(tuple(sorted(items.items())))

    def get(self, attr: str):
        for a, v in self.bindings:
            if a == attr:
                return v
        return UNDEFINED

    def updated(self, assigns: Iterable[tuple[str, Value]]) -> "AttributeEnv":
        items = dict(self.bindings)
        for a, v in assigns:  # left-to-right, last write wins
            items[a] = v
        return AttributeEnv(tuple(sorted(items.items())))

    def keys(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.bindings)

    def __str__(self) -> str:
        return "{" + ", ".join(f"{a}:={v}" for a, v in self.bindings) + "}"


# ---------------------------------------------------------------------------
# Systems


class System(_Node):
    __slots__ = ()


@_node
class Comp(System):
    env: AttributeEnv
    proc: Process


@_node
class SysPar(System):
    left: System
    right: System


@_node
class Bang(System):
    inner: System
    fuel: Optional[int] = None  # remaining unfoldings; None = not yet bounded


@_node
class Nu(System):
    name: str
    inner: System


Definitions = dict[str, tuple[tuple[str, ...], Process]]


@dataclass
class Program:
    defs: Definitions
    main: System
    attrs: frozenset[str] = frozenset()


Node = Union[Value, Expression, Predicate, Process, System]


# ---------------------------------------------------------------------------
# Name bookkeeping


_NO_NAMES: frozenset[str] = frozenset()


def _union(*parts: frozenset[str]) -> frozenset[str]:
    """Union of name sets that returns an operand itself when it already
    covers the others, so a node mostly shares its child's cached set."""
    out = _NO_NAMES
    for part in parts:
        if part <= out:
            continue
        out = part if out <= part else out | part
    return out


def free_names(node: Node) -> frozenset[str]:
    """Free names of a node (cached on the node).

    Attribute identifiers are not names; attribute *values* in an
    environment are free unless captured by a restriction.
    """
    out = getattr(node, "_free", None)
    if out is None:
        out = _free_names(node)
        object.__setattr__(node, "_free", out)
    return out


def _free_names(node: Node) -> frozenset[str]:
    # node classes have no subclasses, so the exact type decides
    kind = type(node)
    if kind is Par or kind is Sum or kind is SysPar:
        return _union(free_names(node.left), free_names(node.right))
    if kind is Cmp or kind is Arith or kind is And or kind is Or:
        return _union(free_names(node.lhs), free_names(node.rhs))
    if kind is Lit:
        return free_names(node.value)
    if kind is Name:
        return frozenset((node.atom,))
    if kind is Var:
        return frozenset((node.name,))
    if kind is In:
        out = _union(free_names(node.pred), free_names(node.cont))
        return out - frozenset(node.vars) if not out.isdisjoint(node.vars) else out
    if kind is Out:
        exprs = (free_names(e) for e in node.exprs)
        return _union(free_names(node.pred), free_names(node.cont), *exprs)
    if kind is Upd:
        exprs = (free_names(e) for _, e in node.assigns)
        return _union(free_names(node.cont), *exprs)
    if kind is Aware:
        return _union(free_names(node.pred), free_names(node.cont))
    if kind is Not:
        return free_names(node.inner)
    if kind is Call:
        return _union(*(free_names(e) for e in node.args))
    if kind is Comp:
        return _union(free_names(node.proc), free_names(node.env))
    if kind is AttributeEnv:
        return _union(*(free_names(v) for _, v in node.bindings))
    if kind is TupleV:
        return _union(*(free_names(i) for i in node.items))
    if kind is Bang:
        return free_names(node.inner)
    if kind is Nu:
        out = free_names(node.inner)
        return out - {node.name} if node.name in out else out
    if kind in (Int, Bool, Attr, ThisAttr, Rand, TT, FF, Nil):
        return _NO_NAMES
    raise TypeError(node)


def has_binders(node: Node) -> bool:
    """Whether an input prefix or a restriction occurs in a node (cached)."""
    out = getattr(node, "_binders", None)
    if out is not None:
        return out
    if isinstance(node, (In, Nu)):
        out = True
    elif isinstance(node, (Out, Upd, Aware)):
        out = has_binders(node.cont)
    elif isinstance(node, (Sum, Par, SysPar)):
        out = has_binders(node.left) or has_binders(node.right)
    elif isinstance(node, Comp):
        out = has_binders(node.proc)
    elif isinstance(node, Bang):
        out = has_binders(node.inner)
    else:  # values, expressions, predicates, environments, nil and calls
        out = False
    object.__setattr__(node, "_binders", out)
    return out


def bound_names(node: Node) -> frozenset[str]:
    if not has_binders(node):
        return _NO_NAMES
    if isinstance(node, In):
        return frozenset(node.vars) | bound_names(node.cont)
    if isinstance(node, (Out, Upd, Aware)):
        return bound_names(node.cont)
    if isinstance(node, (Sum, Par, SysPar)):
        return bound_names(node.left) | bound_names(node.right)
    if isinstance(node, Comp):
        return bound_names(node.proc)
    if isinstance(node, Bang):
        return bound_names(node.inner)
    if isinstance(node, Nu):
        return frozenset((node.name,)) | bound_names(node.inner)
    raise TypeError(node)


class _Gensym:
    def __init__(self, prefix: str = "_f"):
        self.prefix = prefix
        self.counter = 0

    def fresh(self, avoid: frozenset[str]) -> str:
        while True:
            cand = f"{self.prefix}{self.counter}"
            self.counter += 1
            if cand not in avoid:
                return cand


_GENSYM = _Gensym()


def gensym(avoid: frozenset[str] = frozenset()) -> str:
    return _GENSYM.fresh(avoid)


# ---------------------------------------------------------------------------
# Substitution and renaming


def rename_value(v: Value, old: str, new: str) -> Value:
    if isinstance(v, Name):
        return Name(new) if v.atom == old else v
    if isinstance(v, TupleV):
        return TupleV(tuple(rename_value(i, old, new) for i in v.items))
    return v


def rename_free(node, old: str, new: str):
    """Rename every free occurrence of name ``old`` (atoms and vars) to ``new``.

    A node in which ``old`` is not free comes back as itself, with its
    caches and sharing intact.
    """
    if old not in free_names(node):
        return node
    if isinstance(node, Value):
        return rename_value(node, old, new)
    if isinstance(node, Lit):
        return Lit(rename_value(node.value, old, new))
    if isinstance(node, Var):
        return Var(new) if node.name == old else node
    if isinstance(node, (Attr, ThisAttr, Rand)):
        return node
    if isinstance(node, Arith):
        return Arith(node.op, rename_free(node.lhs, old, new), rename_free(node.rhs, old, new))
    if isinstance(node, (TT, FF)):
        return node
    if isinstance(node, Cmp):
        return Cmp(node.op, rename_free(node.lhs, old, new), rename_free(node.rhs, old, new))
    if isinstance(node, And):
        return And(rename_free(node.lhs, old, new), rename_free(node.rhs, old, new))
    if isinstance(node, Or):
        return Or(rename_free(node.lhs, old, new), rename_free(node.rhs, old, new))
    if isinstance(node, Not):
        return Not(rename_free(node.inner, old, new))
    if isinstance(node, Nil):
        return node
    if isinstance(node, Out):
        return Out(
            tuple(rename_free(e, old, new) for e in node.exprs),
            rename_free(node.pred, old, new),
            rename_free(node.cont, old, new),
        )
    if isinstance(node, In):
        if old in node.vars:
            return node  # shadowed
        if new in node.vars:  # would capture: alpha-rename the binder away first
            node = _alpha_in(node, new, gensym(free_names(node) | {old, new}))
        return In(rename_free(node.pred, old, new), node.vars, rename_free(node.cont, old, new))
    if isinstance(node, Upd):
        return Upd(
            tuple((a, rename_free(e, old, new)) for a, e in node.assigns),
            rename_free(node.cont, old, new),
        )
    if isinstance(node, Aware):
        return Aware(rename_free(node.pred, old, new), rename_free(node.cont, old, new))
    if isinstance(node, Sum):
        return Sum(rename_free(node.left, old, new), rename_free(node.right, old, new))
    if isinstance(node, Par):
        return Par(rename_free(node.left, old, new), rename_free(node.right, old, new))
    if isinstance(node, Call):
        return Call(node.name, tuple(rename_free(e, old, new) for e in node.args))
    if isinstance(node, Comp):
        env = AttributeEnv(tuple((a, rename_value(v, old, new)) for a, v in node.env.bindings))
        return Comp(env, rename_free(node.proc, old, new))
    if isinstance(node, SysPar):
        return SysPar(rename_free(node.left, old, new), rename_free(node.right, old, new))
    if isinstance(node, Bang):
        return Bang(rename_free(node.inner, old, new), node.fuel)
    if isinstance(node, Nu):
        if node.name == old:
            return node  # shadowed
        if node.name == new:
            fresh = gensym(free_names(node.inner) | {old, new})
            node = Nu(fresh, rename_free(node.inner, node.name, fresh))
        return Nu(node.name, rename_free(node.inner, old, new))
    raise TypeError(node)


def _alpha_in(node: In, var: str, fresh: str) -> In:
    """Alpha-convert one binder variable of an input prefix."""
    idx = node.vars.index(var)
    new_vars = node.vars[:idx] + (fresh,) + node.vars[idx + 1 :]
    return In(
        rename_free(node.pred, var, fresh),
        new_vars,
        rename_free(node.cont, var, fresh),
    )


def substitute(node, subst: Mapping[str, Value]):
    """Capture-avoiding substitution of values for free variable occurrences.

    A node in which no substituted variable is free comes back as itself.
    """
    if not subst or free_names(node).isdisjoint(subst):
        return node
    if isinstance(node, Lit):
        return node
    if isinstance(node, Var):
        v = subst.get(node.name)
        return Lit(v) if v is not None else node
    if isinstance(node, (Attr, ThisAttr, Rand)):
        return node
    if isinstance(node, Arith):
        return Arith(node.op, substitute(node.lhs, subst), substitute(node.rhs, subst))
    if isinstance(node, (TT, FF)):
        return node
    if isinstance(node, Cmp):
        return Cmp(node.op, substitute(node.lhs, subst), substitute(node.rhs, subst))
    if isinstance(node, And):
        return And(substitute(node.lhs, subst), substitute(node.rhs, subst))
    if isinstance(node, Or):
        return Or(substitute(node.lhs, subst), substitute(node.rhs, subst))
    if isinstance(node, Not):
        return Not(substitute(node.inner, subst))
    if isinstance(node, Nil):
        return node
    if isinstance(node, Out):
        return Out(
            tuple(substitute(e, subst) for e in node.exprs),
            substitute(node.pred, subst),
            substitute(node.cont, subst),
        )
    if isinstance(node, In):
        inner = {k: v for k, v in subst.items() if k not in node.vars}
        if not inner:
            return node
        incoming = frozenset().union(*(names_in_value(v) for v in inner.values()))
        for var in node.vars:
            if var in incoming:
                node = _alpha_in(node, var, gensym(free_names(node) | incoming | set(inner)))
        return In(substitute(node.pred, inner), node.vars, substitute(node.cont, inner))
    if isinstance(node, Upd):
        return Upd(
            tuple((a, substitute(e, subst)) for a, e in node.assigns),
            substitute(node.cont, subst),
        )
    if isinstance(node, Aware):
        return Aware(substitute(node.pred, subst), substitute(node.cont, subst))
    if isinstance(node, Sum):
        return Sum(substitute(node.left, subst), substitute(node.right, subst))
    if isinstance(node, Par):
        return Par(substitute(node.left, subst), substitute(node.right, subst))
    if isinstance(node, Call):
        return Call(node.name, tuple(substitute(e, subst) for e in node.args))
    raise TypeError(node)


# ---------------------------------------------------------------------------
# Pretty printing


_CMP_OPS = {"=", "!=", "<", "<=", ">", ">="}


def pretty_expr(e: Expression) -> str:
    if isinstance(e, Lit):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Attr):
        return e.attr
    if isinstance(e, ThisAttr):
        return f"this.{e.attr}"
    if isinstance(e, Arith):
        lhs = pretty_expr(e.lhs)
        rhs = pretty_expr(e.rhs)
        if isinstance(e.lhs, Arith):
            lhs = f"({lhs})"
        if isinstance(e.rhs, Arith):
            rhs = f"({rhs})"
        return f"{lhs} {e.op} {rhs}"
    if isinstance(e, Rand):
        return f"rand({e.bound})"
    raise TypeError(e)


def pretty_pred(p: Predicate) -> str:
    if isinstance(p, TT):
        return "tt"
    if isinstance(p, FF):
        return "ff"
    if isinstance(p, Cmp):
        return f"{pretty_expr(p.lhs)} {p.op} {pretty_expr(p.rhs)}"
    if isinstance(p, And):
        return f"({pretty_pred(p.lhs)}) && ({pretty_pred(p.rhs)})"
    if isinstance(p, Or):
        return f"({pretty_pred(p.lhs)}) || ({pretty_pred(p.rhs)})"
    if isinstance(p, Not):
        return f"!({pretty_pred(p.inner)})"
    raise TypeError(p)


def pretty_proc(p: Process) -> str:
    if isinstance(p, Nil):
        return "0"
    if isinstance(p, Out):
        es = ", ".join(pretty_expr(e) for e in p.exprs)
        return f"({es})@({pretty_pred(p.pred)}).{_proc_atom(p.cont)}"
    if isinstance(p, In):
        vs = ", ".join(p.vars)
        return f"({pretty_pred(p.pred)})({vs}).{_proc_atom(p.cont)}"
    if isinstance(p, Upd):
        asg = ", ".join(f"{a} := {pretty_expr(e)}" for a, e in p.assigns)
        return f"[{asg}]{_proc_atom(p.cont)}"
    if isinstance(p, Aware):
        return f"<{pretty_pred(p.pred)}>{_proc_atom(p.cont)}"
    if isinstance(p, Sum):
        return f"{_sum_operand(p.left)} + {_sum_operand(p.right)}"
    if isinstance(p, Par):
        return f"{_par_operand(p.left)} | {_par_operand(p.right)}"
    if isinstance(p, Call):
        if p.args:
            return f"{p.name}({', '.join(pretty_expr(e) for e in p.args)})"
        return f"{p.name}()"
    raise TypeError(p)


def _proc_atom(p: Process) -> str:
    if isinstance(p, (Sum, Par)):
        return f"({pretty_proc(p)})"
    return pretty_proc(p)


def _sum_operand(p: Process) -> str:
    if isinstance(p, (Sum, Par)):
        return f"({pretty_proc(p)})"
    return pretty_proc(p)


def _par_operand(p: Process) -> str:
    if isinstance(p, (Sum, Par)):
        return f"({pretty_proc(p)})"
    return pretty_proc(p)


def pretty_system(s: System) -> str:
    if isinstance(s, Comp):
        return f"{s.env}: {_proc_atom(s.proc)}"
    if isinstance(s, SysPar):
        return f"{_sys_operand(s.left)} || {_sys_operand(s.right)}"
    if isinstance(s, Bang):
        return f"!({pretty_system(s.inner)})"
    if isinstance(s, Nu):
        return f"nu {s.name} ({pretty_system(s.inner)})"
    raise TypeError(s)


def _sys_operand(s: System) -> str:
    if isinstance(s, SysPar):
        return f"({pretty_system(s)})"
    return pretty_system(s)


def collect_attrs(node) -> frozenset[str]:
    """All attribute identifiers mentioned anywhere in a node."""
    if isinstance(node, (Value, TT, FF, Nil, Rand, Var, Lit)):
        return frozenset()
    if isinstance(node, (Attr, ThisAttr)):
        return frozenset((node.attr,))
    if isinstance(node, (Arith, Cmp, And, Or)):
        return collect_attrs(node.lhs) | collect_attrs(node.rhs)
    if isinstance(node, Not):
        return collect_attrs(node.inner)
    if isinstance(node, Out):
        out = collect_attrs(node.pred) | collect_attrs(node.cont)
        for e in node.exprs:
            out |= collect_attrs(e)
        return out
    if isinstance(node, In):
        return collect_attrs(node.pred) | collect_attrs(node.cont)
    if isinstance(node, Upd):
        out = collect_attrs(node.cont)
        for a, e in node.assigns:
            out |= frozenset((a,)) | collect_attrs(e)
        return out
    if isinstance(node, Aware):
        return collect_attrs(node.pred) | collect_attrs(node.cont)
    if isinstance(node, (Sum, Par)):
        return collect_attrs(node.left) | collect_attrs(node.right)
    if isinstance(node, Call):
        out = frozenset()
        for e in node.args:
            out |= collect_attrs(e)
        return out
    if isinstance(node, Comp):
        return frozenset(node.env.keys()) | collect_attrs(node.proc)
    if isinstance(node, SysPar):
        return collect_attrs(node.left) | collect_attrs(node.right)
    if isinstance(node, (Bang, Nu)):
        return collect_attrs(node.inner)
    raise TypeError(node)


def collect_values(node) -> frozenset[Value]:
    """All literal values mentioned anywhere in a node (tuples flattened in)."""
    out: set[Value] = set()

    def add(v: Value):
        out.add(v)
        if isinstance(v, TupleV):
            for i in v.items:
                add(i)

    def walk(n):
        if isinstance(n, Value):
            add(n)
        elif isinstance(n, Lit):
            add(n.value)
        elif isinstance(n, (Var, Attr, ThisAttr, TT, FF, Nil)):
            pass
        elif isinstance(n, (Arith, Cmp, And, Or)):
            walk(n.lhs)
            walk(n.rhs)
        elif isinstance(n, Not):
            walk(n.inner)
        elif isinstance(n, Rand):
            for k in range(n.bound):
                out.add(Int(k))
        elif isinstance(n, Out):
            for e in n.exprs:
                walk(e)
            walk(n.pred)
            walk(n.cont)
        elif isinstance(n, In):
            walk(n.pred)
            walk(n.cont)
        elif isinstance(n, Upd):
            for _, e in n.assigns:
                walk(e)
            walk(n.cont)
        elif isinstance(n, Aware):
            walk(n.pred)
            walk(n.cont)
        elif isinstance(n, (Sum, Par)):
            walk(n.left)
            walk(n.right)
        elif isinstance(n, Call):
            for e in n.args:
                walk(e)
        elif isinstance(n, Comp):
            for _, v in n.env.bindings:
                add(v)
            walk(n.proc)
        elif isinstance(n, SysPar):
            walk(n.left)
            walk(n.right)
        elif isinstance(n, (Bang, Nu)):
            walk(n.inner)

    walk(node)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Alpha-canonicalization


def canonicalize(sys: System) -> System:
    """Rename all binders to canonical reserved names in traversal order.

    Two systems are alpha-equivalent iff their canonical forms are equal.
    Restriction binders become ``_n<k>``, input binders ``_v<k>``; the
    counters are shared across the whole term so numbering is positional.
    A counter skips the names that occur free in the binder's scope; the
    free-name set is alpha-invariant, so the choice is too.

    The term is walked once, carrying a renaming ``rho`` from the binders
    in scope to their canonical names, so no binder is renamed into a name
    another one still uses.  A node whose children come back unchanged is
    returned itself, and a node without binders whose free names ``rho``
    leaves alone is returned without being walked: a successor built from
    a canonical state keeps most of its nodes, and their cached fields.
    """
    counter = {"n": 0, "v": 0}

    def pick(kind: str, taken) -> str:
        while True:
            cand = f"_{kind}{counter[kind]}"
            counter[kind] += 1
            if cand not in taken:
                return cand

    def scope(node, rho):
        # the binder's free names as they read after renaming
        names = free_names(node)
        return {rho.get(x, x) for x in names} if rho else names

    def walk_all(items: tuple, rho) -> tuple:
        out = tuple(walk(i, rho) for i in items)
        return items if all(a is b for a, b in zip(out, items)) else out

    def walk_pairs(pairs: tuple, rho) -> tuple:
        out = tuple((k, walk(x, rho)) for k, x in pairs)
        return pairs if all(a[1] is b[1] for a, b in zip(out, pairs)) else out

    def walk(node, rho):
        if not has_binders(node) and (not rho or free_names(node).isdisjoint(rho)):
            return node
        # node classes have no subclasses, so the exact type decides; the
        # most frequent kinds come first
        kind = type(node)
        if kind is Par or kind is Sum or kind is SysPar:
            left, right = walk(node.left, rho), walk(node.right, rho)
            if left is node.left and right is node.right:
                return node
            return kind(left, right)
        if kind is In:
            taken = scope(node, rho)
            vars_ = tuple(pick("v", taken) for _ in node.vars)
            inner = _bind(rho, zip(node.vars, vars_))
            pred, cont = walk(node.pred, inner), walk(node.cont, inner)
            if vars_ == node.vars and pred is node.pred and cont is node.cont:
                return node
            return In(pred, vars_, cont)
        if kind is Out:
            exprs = walk_all(node.exprs, rho)
            pred, cont = walk(node.pred, rho), walk(node.cont, rho)
            if exprs is node.exprs and pred is node.pred and cont is node.cont:
                return node
            return Out(exprs, pred, cont)
        if kind is Comp:
            env, proc = walk(node.env, rho), walk(node.proc, rho)
            return node if env is node.env and proc is node.proc else Comp(env, proc)
        if kind is Upd:
            assigns, cont = walk_pairs(node.assigns, rho), walk(node.cont, rho)
            return node if assigns is node.assigns and cont is node.cont else Upd(assigns, cont)
        if kind is Aware:
            pred, cont = walk(node.pred, rho), walk(node.cont, rho)
            return node if pred is node.pred and cont is node.cont else Aware(pred, cont)
        if kind is Nu:
            name = pick("n", scope(node, rho))
            inner = walk(node.inner, _bind(rho, ((node.name, name),)))
            return node if name == node.name and inner is node.inner else Nu(name, inner)
        if kind is Bang:
            inner = walk(node.inner, rho)
            return node if inner is node.inner else Bang(inner, node.fuel)
        # below: no binders, and some free name is renamed
        if kind is Var:
            return Var(rho[node.name])
        if kind is Name:
            return Name(rho[node.atom])
        if kind is Lit:
            return Lit(walk(node.value, rho))
        if kind is Cmp or kind is Arith:
            return kind(node.op, walk(node.lhs, rho), walk(node.rhs, rho))
        if kind is And or kind is Or:
            return kind(walk(node.lhs, rho), walk(node.rhs, rho))
        if kind is Not:
            return Not(walk(node.inner, rho))
        if kind is Call:
            return Call(node.name, walk_all(node.args, rho))
        if kind is AttributeEnv:
            return AttributeEnv(walk_pairs(node.bindings, rho))
        if kind is TupleV:
            return TupleV(walk_all(node.items, rho))
        raise TypeError(node)

    return walk(sys, {})


def _bind(rho: dict, pairs) -> dict:
    """``rho`` extended with binders and their new names; a binder that
    keeps its name shadows any outer entry for it."""
    inner = dict(rho)
    for old, new in pairs:
        if old == new:
            inner.pop(old, None)
        else:
            inner[old] = new
    return inner


def alpha_equal(s1: System, s2: System) -> bool:
    return canonicalize(s1) == canonicalize(s2)
