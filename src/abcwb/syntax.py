"""Abstract syntax for the attribute-based broadcast calculus.

Components carry an attribute environment and a process; processes
communicate by broadcast filtered through predicates over attributes.
All nodes are immutable (frozen, slotted dataclasses) and safe to share.

Every node also has two cache slots that are filled on first use and
never change afterwards: its structural hash (leaves, whose hash costs
no more than the lookup, leave it unused) and its free names.  They are
not fields, so equality, ``repr`` and construction are unchanged; a term
built once and shared by many states pays for each of them once.
Whether a node can hold a binder needs no slot: only an ``In`` (a
process) and a ``Nu`` (a system) bind, so a value, expression, predicate
or attribute environment never holds one.

A component (``Comp``) has two more: its printed text and its
canonical forms (see ``canonicalize``), neither of which depends on
where it occurs.  A restriction is a system node and never occurs
inside a component, and an input binds only inside its own component,
so the walk numbers a component's input binders from ``_v0`` and reads
its renaming ``rho`` only at the component's free names.  The form is
therefore a function of ``rho`` restricted to the free names, which is
its key (a sorted tuple, so the key does not depend on string hashing).
A component that is its own form stores ``None`` instead, so no
component refers to itself.

Traversals are written over two functions that know the node kinds:
``children(node)`` gives the child nodes in field order, and
``map_children(node, f, *args)`` applies ``f(child, *args)`` to them in
that same order.  Field order is ``Out``: payload expressions, predicate,
continuation; ``In``: predicate, continuation; ``Upd``: assigned
expressions, continuation; ``Comp``: environment, process; an
environment's children are its values.  ``map_children`` returns the
node itself when every child comes back as the same object and rebuilds
it otherwise, so a traversal that changes nothing keeps the caches and
the sharing.  A traversal treats only its special kinds by hand (the
``In``/``Nu`` binders, the ``Var``/``Name`` leaves, attribute keys) and
leaves the rest to these two; ``free_names`` treats only the
``Name``/``Var`` leaves and the ``In``/``Nu`` binders, and the searches
over a whole term (``bound_names``, ``collect_*``, ...) are filters over
``subterms(node)``.  Above the components a system is a spine of ``||``,
``!`` and ``nu`` nodes: ``spine(sys)`` yields its nodes and stops at the
components, and every search over the spine (``system.spent``,
``explorer.env_has``, ...) is a filter over that one walk.  Only
``set_fuel`` and ``freshen_binders``, which rebuild the spine, stop at a
component by hand and map the rest.
The broadcast pi-calculus in ``bpi.py`` keeps its own traversals on
purpose: it is the independent reference the encoding checks compare
against.

Names change in two ways, both capture-avoiding: ``rename`` renames
free names by a mapping, all at once, and ``substitute`` puts values for
free variables.  Where a binder of an ``In`` or ``Nu`` node would catch
an incoming name, ``_rebind`` first renames it to a fresh ``_f`` name.

A single namespace of *names* is used throughout: a name can occur as a
value atom (``Name``), as an expression placeholder awaiting substitution
(``Var``), as an input binder, or as a restriction binder.  Identifiers
matching ``_n<k>``, ``_v<k>``, ``_f<k>`` and ``_w<k>`` are reserved for
internal canonical/fresh names and rejected by the parser.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from operator import is_ as _is
from typing import Iterable, Mapping, Optional, Union


RESERVED_NAME = re.compile(r"_[nvfw]\d+$")


class _Node:
    """Base of every syntax node: the per-object caches (see module doc)."""

    __slots__ = ("_hash", "_free")


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


class _CompNode(System):
    """The caches only a component has (see the module doc)."""

    __slots__ = ("_canon", "_text")


@_node
class Comp(_CompNode):
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

# kinds without child nodes
_LEAVES = frozenset((Name, Int, Bool, Var, Attr, ThisAttr, Rand, TT, FF, Nil))


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
        kind = type(node)
        if kind is Name:
            out = frozenset((node.atom,))
        elif kind is Var:
            out = frozenset((node.name,))
        else:
            out = _union(*map(free_names, children(node)))
            if kind is In and not out.isdisjoint(node.vars):
                out = out - frozenset(node.vars)
            elif kind is Nu and node.name in out:
                out = out - {node.name}
        object.__setattr__(node, "_free", out)
    return out


def bound_names(node: Node) -> frozenset[str]:
    """Names bound by an input prefix or a restriction anywhere in a node."""
    return frozenset(itertools.chain.from_iterable(
        n.vars if type(n) is In else (n.name,) for n in subterms(node) if type(n) in (In, Nu)))


# ---------------------------------------------------------------------------
# Generic traversal (see the module doc)


def children(node: Node) -> tuple:
    """The child nodes of a node, in field order."""
    kind = type(node)
    if kind is Par or kind is Sum or kind is SysPar:
        return (node.left, node.right)
    if kind is Cmp or kind is Arith or kind is And or kind is Or:
        return (node.lhs, node.rhs)
    if kind is In or kind is Aware:
        return (node.pred, node.cont)
    if kind is Out:
        return (*node.exprs, node.pred, node.cont)
    if kind is Upd:
        return (*(e for _, e in node.assigns), node.cont)
    if kind is Comp:
        return (node.env, node.proc)
    if kind is Bang or kind is Nu or kind is Not:
        return (node.inner,)
    if kind is Lit:
        return (node.value,)
    if kind is Call:
        return node.args
    if kind is TupleV:
        return node.items
    if kind is AttributeEnv:
        return tuple(v for _, v in node.bindings)
    if kind in _LEAVES:
        return ()
    raise TypeError(node)


def _map_all(items: tuple, f, args) -> tuple:
    out = tuple([f(i, *args) for i in items])
    return items if all(map(_is, out, items)) else out


def _map_pairs(pairs: tuple, f, args) -> tuple:
    out = tuple([(k, f(x, *args)) for k, x in pairs])
    return pairs if all(a[1] is b[1] for a, b in zip(out, pairs)) else out


def map_children(node: Node, f, *args):
    """``node`` with each child replaced by ``f(child, *args)``, children
    taken in field order; ``node`` itself when every child comes back as
    the same object."""
    # node classes have no subclasses, so the exact type decides; the
    # most frequent kinds come first
    kind = type(node)
    if kind is Par or kind is Sum or kind is SysPar:
        left, right = f(node.left, *args), f(node.right, *args)
        if left is node.left and right is node.right:
            return node
        return kind(left, right)
    if kind is In:
        pred, cont = f(node.pred, *args), f(node.cont, *args)
        if pred is node.pred and cont is node.cont:
            return node
        return In(pred, node.vars, cont)
    if kind is Out:
        exprs = _map_all(node.exprs, f, args)
        pred, cont = f(node.pred, *args), f(node.cont, *args)
        if exprs is node.exprs and pred is node.pred and cont is node.cont:
            return node
        return Out(exprs, pred, cont)
    if kind is Comp:
        env, proc = f(node.env, *args), f(node.proc, *args)
        return node if env is node.env and proc is node.proc else Comp(env, proc)
    if kind is Upd:
        assigns, cont = _map_pairs(node.assigns, f, args), f(node.cont, *args)
        return node if assigns is node.assigns and cont is node.cont else Upd(assigns, cont)
    if kind is Aware:
        pred, cont = f(node.pred, *args), f(node.cont, *args)
        return node if pred is node.pred and cont is node.cont else Aware(pred, cont)
    if kind is Cmp or kind is Arith:
        lhs, rhs = f(node.lhs, *args), f(node.rhs, *args)
        if lhs is node.lhs and rhs is node.rhs:
            return node
        return kind(node.op, lhs, rhs)
    if kind is And or kind is Or:
        lhs, rhs = f(node.lhs, *args), f(node.rhs, *args)
        return node if lhs is node.lhs and rhs is node.rhs else kind(lhs, rhs)
    if kind is Lit:
        value = f(node.value, *args)
        return node if value is node.value else Lit(value)
    if kind is Not:
        inner = f(node.inner, *args)
        return node if inner is node.inner else Not(inner)
    if kind is Bang:
        inner = f(node.inner, *args)
        return node if inner is node.inner else Bang(inner, node.fuel)
    if kind is Nu:
        inner = f(node.inner, *args)
        return node if inner is node.inner else Nu(node.name, inner)
    if kind is Call:
        args_ = _map_all(node.args, f, args)
        return node if args_ is node.args else Call(node.name, args_)
    if kind is TupleV:
        items = _map_all(node.items, f, args)
        return node if items is node.items else TupleV(items)
    if kind is AttributeEnv:
        bindings = _map_pairs(node.bindings, f, args)
        return node if bindings is node.bindings else AttributeEnv(bindings)
    if kind in _LEAVES:
        return node
    raise TypeError(node)


def fresh_names(taken, kind: str = "f"):
    """The names ``_{kind}0, _{kind}1, ...`` not in ``taken``, in order."""
    return (n for k in itertools.count() if (n := f"_{kind}{k}") not in taken)


def gensym(avoid) -> str:
    """The first name ``_f0, _f1, ...`` not in ``avoid``.

    There is no global counter: a name depends only on ``avoid``, so a
    step or a check does not depend on what ran earlier in the process.
    """
    return next(fresh_names(avoid))


# ---------------------------------------------------------------------------
# Substitution and renaming


def rename(node, sigma: Mapping[str, str]):
    """Rename the free names of a node (atoms and vars) by ``sigma``, all
    at once: ``{a: b, b: a}`` swaps ``a`` and ``b``.

    A binder that would capture a new name is renamed to a fresh one
    first.  A node in which no name of ``sigma`` is free comes back as
    itself, with its caches and sharing intact.
    """
    names = free_names(node)
    if names.isdisjoint(sigma):
        return node
    kind = type(node)
    if kind is Var:
        return Var(sigma[node.name])
    if kind is Name:
        return Name(sigma[node.atom])
    if kind is In or kind is Nu:
        # only free names are renamed: no entry for a binder reaches below it
        sigma = {k: v for k, v in sigma.items() if k in names}
        node = _rebind(node, set(sigma.values()), sigma)
    return map_children(node, rename, sigma)


def _rebind(node, incoming, avoid):
    """An ``In`` or ``Nu`` node whose binders in ``incoming`` are renamed
    to fresh names, which avoid ``incoming``, ``avoid``, the binders and
    the node's free names."""
    binders = node.vars if type(node) is In else (node.name,)
    clashing = [b for b in binders if b in incoming]
    if not clashing:
        return node
    fresh = fresh_names(free_names(node) | incoming | set(avoid) | set(binders))
    sigma = {b: next(fresh) for b in clashing}
    if type(node) is Nu:
        return Nu(sigma[node.name], rename(node.inner, sigma))
    vars_ = tuple(sigma.get(v, v) for v in node.vars)
    return In(rename(node.pred, sigma), vars_, rename(node.cont, sigma))


def substitute(node, subst: Mapping[str, Value]):
    """Capture-avoiding substitution of values for the free variables of a
    process or one of its parts.

    A node in which no substituted variable is free comes back as itself.
    Values, ``Name`` atoms among them, are never substituted into.
    """
    if not subst or free_names(node).isdisjoint(subst):
        return node
    kind = type(node)
    if kind is Var:
        return Lit(subst[node.name])
    if kind is In:
        subst = {k: v for k, v in subst.items() if k not in node.vars}
        node = _rebind(node, _union(*(free_names(v) for v in subst.values())), subst)
    elif kind is Lit:
        return node
    return map_children(node, substitute, subst)


# ---------------------------------------------------------------------------
# Pretty printing


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
        return f"{_proc_atom(p.left)} + {_proc_atom(p.right)}"
    if isinstance(p, Par):
        return f"{_proc_atom(p.left)} | {_proc_atom(p.right)}"
    if isinstance(p, Call):
        if p.args:
            return f"{p.name}({', '.join(pretty_expr(e) for e in p.args)})"
        return f"{p.name}()"
    raise TypeError(p)


def _proc_atom(p: Process) -> str:
    """A process as a prefix continuation or a ``+``/``|`` operand."""
    if isinstance(p, (Sum, Par)):
        return f"({pretty_proc(p)})"
    return pretty_proc(p)


def pretty_system(s: System) -> str:
    if type(s) is Comp:
        # a component prints the same wherever it occurs (cached)
        text = getattr(s, "_text", None)
        if text is None:
            text = f"{s.env}: {_proc_atom(s.proc)}"
            object.__setattr__(s, "_text", text)
        return text
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


def subterms(node):
    """Every node of a term in pre-order, left to right."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children(node)[::-1])


def spine(sys: System) -> list:
    """Every system node of a system, the system itself and its
    components included: the walk stops at a component."""
    out = [sys]
    for node in out:  # a list iterator also reaches what is appended
        if type(node) is not Comp:
            out.extend(children(node))
    return out


def collect_attrs(node) -> frozenset[str]:
    """All attribute identifiers mentioned anywhere in a node."""
    out = set()
    for n in subterms(node):
        kind = type(n)
        if kind is Attr or kind is ThisAttr:
            out.add(n.attr)
        elif kind is AttributeEnv:
            out.update(n.keys())
        elif kind is Upd:
            out.update(a for a, _ in n.assigns)
    return frozenset(out)


def collect_values(node) -> frozenset[Value]:
    """All literal values mentioned anywhere in a node (tuples flattened
    in); ``rand(k)`` mentions ``0`` to ``k - 1``."""
    out = set()
    for n in subterms(node):
        if type(n) is Rand:
            out.update(map(Int, range(n.bound)))
        elif isinstance(n, Value):
            out.add(n)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Alpha-canonicalization


def canonicalize(sys: System) -> System:
    """Rename all binders to canonical reserved names in traversal order.

    Two systems are alpha-equivalent iff their canonical forms are equal.
    Restriction binders become ``_n<k>``, numbered across the whole term;
    input binders become ``_v<k>``, numbered from ``_v0`` in each
    component, the only scope they have.  A counter skips the names that
    occur free in the binder's scope; the free-name set is
    alpha-invariant, so the choice is too.

    The term is walked once, carrying a renaming ``rho`` from the binders
    in scope to their canonical names, so no binder is renamed into a name
    another one still uses.  A node whose children come back unchanged is
    returned itself, and a value, expression, predicate or environment
    (none of which holds a binder) whose free names ``rho`` leaves alone
    is returned without being walked: a successor built from a canonical
    state keeps most of its nodes, and their cached fields.
    A component is walked once per renaming of its free names (see the
    module doc): a component shared by many states is canonicalised once.

    A term without a restriction is canonical as soon as its components
    are: ``rho`` is empty outside a ``Nu``, so each component is replaced
    by its own form under the empty renaming, and the nodes above the
    components are kept.  Such a term is then returned itself.  The step
    memo keeps canonical components (see ``system``), so a walk whose
    roots hold no restriction builds canonical states and need not call
    this on them.
    """
    return _canon(sys, {}, {"n": 0})


def _pick(kind: str, taken, counter: dict) -> str:
    """The next canonical name of ``kind`` not in ``taken``; advances the
    counter past every name it tries."""
    while True:
        cand = f"_{kind}{counter[kind]}"
        counter[kind] += 1
        if cand not in taken:
            return cand


def _scope(node, rho: dict):
    """A binder's free names as they read after renaming."""
    names = free_names(node)
    return {rho.get(x, x) for x in names} if rho else names


# only an ``In`` binds inside a component and only a ``Nu`` above them
_MAY_BIND = (Process, System)


def _canon(node, rho: dict, counter: dict):
    if not isinstance(node, _MAY_BIND) and (not rho or free_names(node).isdisjoint(rho)):
        return node
    kind = type(node)
    if kind is Comp:
        return _canon_comp(node, rho)
    if kind is In:
        taken = _scope(node, rho)
        vars_ = tuple(_pick("v", taken, counter) for _ in node.vars)
        inner = _bind(rho, zip(node.vars, vars_))
        pred, cont = _canon(node.pred, inner, counter), _canon(node.cont, inner, counter)
        if vars_ == node.vars and pred is node.pred and cont is node.cont:
            return node
        return In(pred, vars_, cont)
    if kind is Nu:
        name = _pick("n", _scope(node, rho), counter)
        inner = _canon(node.inner, _bind(rho, ((node.name, name),)), counter)
        return node if name == node.name and inner is node.inner else Nu(name, inner)
    # a leaf that got here is a free name that rho renames
    if kind is Var:
        return Var(rho[node.name])
    if kind is Name:
        return Name(rho[node.atom])
    return map_children(node, _canon, rho, counter)


def _canon_comp(comp: Comp, rho: dict) -> Comp:
    """A component's canonical form, from its cache when it has one for
    this renaming of its free names."""
    key = tuple(sorted((x, rho[x]) for x in free_names(comp) if x in rho)) if rho else ()
    forms = getattr(comp, "_canon", None)
    if forms is None:
        forms = {}
        object.__setattr__(comp, "_canon", forms)
    form = forms.get(key, False)  # False: not walked yet
    if form is False:
        form = map_children(comp, _canon, rho, {"v": 0})
        # a component that is its own form is not referred to from itself
        forms[key] = None if form is comp else form
    return form or comp


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
