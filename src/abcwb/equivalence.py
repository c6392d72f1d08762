"""Observables and bisimilarity checking over bounded state spaces.

Since a component cannot refuse a broadcast (it either consumes it or
ignores it, and both count as handling), input moves are part of the
behaviour.  The checker closes the explored space under a finite stock
of stimulus messages: every broadcast either system can actually emit,
plus unrestricted messages over the value universe at each input arity
occurring in the terms.  This finite quantification is exact whenever
distinguishing messages can be built from mentioned values, which holds
for equality-based predicates; it is the documented approximation
otherwise.

The joint space is an integer graph built once by the explorer's
breadth-first ``Walk`` from both roots: states are numbered in discovery
order and canonical labels are interned to numbers (tau is 0).  This
module adds only the stimulus pool and the loop that offers it.  Most
stimuli are discarded by every component of a state, and the states
share few distinct components, so the loop asks each distinct component
once which stimuli it receives and keeps the answers for the call.  A
stimulus that no component of a state receives is recorded as a
self-loop, as ``sys_deliver`` would hand back the state itself; every
other stimulus goes through ``sys_deliver``.  A stimulus that mentions
a name the state's restrictions bind takes that full path too, because
delivery renames that restriction first.  Each component's deliveries
come from the walk's memo, which ``sys_deliver`` shares.

Bisimilarity is computed by partition refinement over that graph: start
from one block and split blocks by the set of (label, target block)
moves of their states until nothing splits.  The round in which two
states part gives a minimal-depth distinguishing strategy, which is
reported as a nested witness, printed by mapping the numbers back to
terms and labels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .attributes import DEFAULT_MESSAGE_BUDGET, Universe, fingerprint, UniverseTooLarge
from .explorer import TAU_LABEL, Walk, canon_label, label_text
from .syntax import (
    Comp,
    Definitions,
    In,
    Nu,
    Predicate,
    System,
    TT_,
    Value,
    canonicalize,
    children,
    has_binders,
    pretty_system,
    value_sort_key,
)
from .system import SIn, SOut, msg_names, receives, set_fuel, sys_deliver, system_steps


def barbs(sys: System, defs: Definitions, universe: Universe) -> set:
    """Immediate observables: fingerprints and arities of enabled sends."""
    out = set()
    for lab, _ in system_steps(sys, defs, universe, {}):
        if isinstance(lab, SOut):
            out.add((fingerprint(lab.pred, universe), len(lab.values)))
    return out


def _input_arities(node) -> set[int]:
    """Numbers of variables of the input prefixes in a term."""
    if not has_binders(node):
        return set()
    out = set().union(*map(_input_arities, children(node)))
    if type(node) is In:
        out.add(len(node.vars))
    return out


def _parts(sys: System, comps: set, bound: set) -> None:
    """Add a state's components to ``comps`` and the names its
    restrictions bind to ``bound``."""
    if type(sys) is Comp:
        comps.add(sys)
        return
    if type(sys) is Nu:
        bound.add(sys.name)
    for c in children(sys):
        _parts(c, comps, bound)


def stimulus_messages(
    systems, defs: Definitions, universe: Universe, budget: int = DEFAULT_MESSAGE_BUDGET
) -> list[tuple[Predicate, tuple[Value, ...]]]:
    """Baseline input stimuli: unrestricted sends over the universe."""
    widths: set[int] = set()
    for s in systems:
        widths |= _input_arities(s)
    for _, (_, body) in sorted(defs.items()):
        widths |= _input_arities(body)
    values = sorted(universe.values, key=value_sort_key)
    msgs: list[tuple[Predicate, tuple[Value, ...]]] = []
    for w in sorted(widths):
        count = len(values) ** w
        if len(msgs) + count > budget:
            raise UniverseTooLarge(
                f"stimulus set would exceed {budget} messages; shrink the universe"
            )
        for combo in itertools.product(values, repeat=w):
            msgs.append((TT_, combo))
    return msgs


@dataclass
class _Space:
    """Joint explored space of the two systems under comparison.

    States are numbered in discovery order and canonical labels are
    interned to numbers, tau being 0, so refinement hashes and compares
    ints rather than terms and nested label tuples.  ``states`` and
    ``labels`` map the numbers back for the witness.
    """

    states: list  # state number -> canonical System
    labels: list  # label number -> canonical label
    succ: dict  # state number -> dict[label number, tuple of distinct state numbers]
    truncated: bool
    reasons: list


def _explore_pair(
    roots,
    defs: Definitions,
    universe: Universe,
    *,
    repl_bound: int,
    max_states: int,
    message_budget: int,
) -> tuple[list[int], _Space]:
    """Explore both systems under outputs, silent steps, and stimuli.

    The stimulus pool starts from the arity baseline and grows with
    every output either side is seen to emit, re-offered to already
    visited states until a fixpoint.  Returns the numbers of the two
    initial states and the numbered space.
    """
    walk = Walk(roots, defs, universe, repl_bound=repl_bound, max_states=max_states)

    # (predicate, values, label number, names) of every stimulus, in offer order
    messages: list[tuple[Predicate, tuple[Value, ...], int, frozenset[str]]] = []

    def add_message(pred, vals):
        key = canon_label(SIn(pred, vals), universe)
        if key in walk.label_ids:  # only stimuli intern input labels
            return
        if len(messages) >= message_budget:
            walk.note("stimulus budget exhausted")
            return
        messages.append((pred, vals, walk.intern(key), msg_names(pred, vals)))

    for pred, vals in stimulus_messages(roots, defs, universe, message_budget):
        add_message(pred, vals)  # the baseline never exceeds the budget

    heard: dict[Comp, tuple[int, set[int]]] = {}  # stimuli offered, received
    offered: list[int] = []  # how many stimuli each state has seen
    while True:
        progressed = walk.step(add_message)
        offered += [0] * (len(walk.states) - len(offered))
        # offer any not-yet-offered stimuli to every stepped state
        for i, n in enumerate(offered):
            if n == len(messages):
                continue
            progressed = True
            s, comps, received, bound = walk.states[i], set(), set(), set()
            _parts(s, comps, bound)
            for c in comps:
                seen, got = heard.get(c, (0, set()))
                for m in range(seen, len(messages)):
                    pred, vals, _, _ = messages[m]
                    if receives(c, pred, vals, defs, walk.memo):
                        got.add(m)
                heard[c] = (len(messages), got)
                received |= got
            for m in range(n, len(messages)):
                pred, vals, k, names = messages[m]
                if m not in received and bound.isdisjoint(names):
                    walk.move(i, k, s)  # every component discards: a self-loop
                    continue
                for t in sys_deliver(s, pred, vals, defs, universe, walk.memo):
                    walk.move(i, k, t)
            offered[i] = len(messages)
        if not progressed:
            break

    succ: dict[int, dict[int, tuple]] = {i: {} for i in range(len(walk.states))}
    for i, k, j in walk.moves:
        targets = succ[i].get(k, ())
        if j not in targets:
            succ[i][k] = targets + (j,)
    space = _Space(walk.states, walk.labels, succ, bool(walk.reasons), walk.reasons)
    return walk.roots, space


@dataclass
class BisimResult:
    equivalent: bool
    witness: dict | None
    truncated: bool
    reasons: list[str] = field(default_factory=list)


def _refine(space: _Space, weak: bool):
    """Partition refinement by successor signatures.

    Returns the (possibly saturated) successor map, the final block of
    each state (a list indexed by state number), and the partition
    history; two states are related iff they end up in the same block.
    """
    succ = space.succ
    if weak:
        succ = _weak_closure(succ)
    n = len(succ)
    block = [0] * n
    history = [block]
    count = 1
    while True:
        keys: dict = {}
        refined = []
        for s in range(n):
            # block numbers are below n, so lab * n + block names the pair
            sig = frozenset(
                lab * n + block[t] for lab, ts in succ[s].items() for t in ts
            )
            refined.append(keys.setdefault((block[s], sig), len(keys)))
        if len(keys) == count:
            return succ, refined, history
        count = len(keys)
        block = refined
        history.append(block)


def _sep_round(p, q, history) -> int:
    """First refinement round that put p and q in different blocks."""
    for i, block in enumerate(history):
        if block[p] != block[q]:
            return i
    return len(history)  # never separated


def _mismatch(p, q, succ, block):
    """An attacker move from p that q cannot answer into the same block.

    Targets are tried in discovery order, a move back to p itself last:
    such a stutter restates the pair rather than explaining it.
    """
    for lab, targets in succ[p].items():
        answers = succ[q].get(lab, frozenset())
        answer_blocks = {block[u] for u in answers}
        for t in sorted(targets, key=lambda t: (t == p, t)):
            if block[t] not in answer_blocks:
                return (lab, t, answers)
    return None


def _weak_closure(succ):
    """Saturate: tau* a tau* for visible moves, tau* for silent ones."""
    n = len(succ)
    tclo: list[frozenset[int]] = []
    for s in range(n):
        seen = {s}
        stack = [s]
        while stack:
            cur = stack.pop()
            for t in succ[cur].get(TAU_LABEL, ()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        tclo.append(frozenset(seen))
    weak: dict = {}
    for s in range(n):
        d: dict = {TAU_LABEL: set(tclo[s])}
        for mid in tclo[s]:
            for lab, targets in succ[mid].items():
                if lab == TAU_LABEL:
                    continue
                acc = d.setdefault(lab, set())
                for t in targets:
                    acc |= tclo[t]
        weak[s] = {k: tuple(v) for k, v in d.items()}
    return weak


def _build_witness(p, q, space, succ, history):
    """The move that parted ``p`` and ``q``, then the pair it leads to.

    The move is read off the partition one round before the pair parted,
    so every answer to it was parted from its target in an earlier round:
    each level is strictly shallower, and the chain ends in a move with no
    answer at all.
    """
    block = history[_sep_round(p, q, history) - 1]
    for first, second, side in ((p, q, "left"), (q, p, "right")):
        miss = _mismatch(first, second, succ, block)
        if miss:
            lab, t, answers = miss
            node = {
                "side": side,
                "label": label_text(space.labels[lab]),
                "from": pretty_system(space.states[first]),
                "to": pretty_system(space.states[t]),
            }
            if answers:
                # recurse on the answer parted from t as early as possible
                u = min(sorted(answers), key=lambda u: _sep_round(t, u, history))
                node["continues"] = _build_witness(t, u, space, succ, history)
            else:
                node["continues"] = None  # the move is missing outright
            return node
    raise AssertionError("a parted pair has a distinguishing move")


def bisimilar(
    s1: System,
    s2: System,
    defs: Definitions,
    universe: Universe = None,
    *,
    weak: bool = False,
    repl_bound: int = 3,
    max_states: int = 2000,
    seed: int = 0,
    message_budget: int = DEFAULT_MESSAGE_BUDGET,
) -> BisimResult:
    """Decide (strong or weak) bisimilarity on the bounded joint space;
    no verdict depends on ``seed``, which callers may pass along."""
    if universe is None:
        universe = Universe.for_systems([s1, s2], defs)
    # identical states are related by the identity bisimulation; skip
    # the joint exploration entirely in that case
    if canonicalize(set_fuel(s1, repl_bound)) == canonicalize(set_fuel(s2, repl_bound)):
        return BisimResult(True, None, False, [])
    (i1, i2), space = _explore_pair(
        (s1, s2),
        defs,
        universe,
        repl_bound=repl_bound,
        max_states=max_states,
        message_budget=message_budget,
    )
    if i1 is None or i2 is None:  # the state budget ran out at the start
        return BisimResult(False, None, True, space.reasons)
    succ, block, history = _refine(space, weak)
    if block[i1] == block[i2]:
        return BisimResult(True, None, space.truncated, space.reasons)
    witness = _build_witness(i1, i2, space, succ, history)
    return BisimResult(False, witness, space.truncated, space.reasons)

