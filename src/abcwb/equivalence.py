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
share few distinct components, so the loop tests each distinct
component's input prefixes against each stimulus once.  A stimulus that
no component of a state receives is a discard, which ``sys_deliver``
would answer with the state itself, and it is not recorded.  Every other
stimulus goes through ``sys_deliver``, and so does one that mentions a
name the state's restrictions bind, because delivery renames that
restriction first; the state lists its label in ``takes``.  The space
thus holds explicit moves only, and ``_Space.moves`` puts the implicit
self-loops back on demand.

Bisimilarity is computed by partition refinement over that graph: start
from one block and split blocks by the set of (label, target block)
moves of their states until nothing splits.  Every state is offered the
same stimuli S, so a state that takes the stimuli X, has the explicit
moves E and discards into the blocks U has the moves E + (S - X) x U.
Among states with the same U that set is fixed by the symmetric
difference of E and X x U, which the signature holds instead.  In the
strong case U is the state's own block, part of the key anyway.  In the
weak case the moves are saturated over the tau-closure: X is the union
of ``takes`` over the closure, U is the closure's blocks, which its tau
move names, and a taken stimulus also leads to the closure of each state
of the closure that discards it.  The round in which two states part
gives a minimal-depth distinguishing strategy, reported as a nested
witness that reads each state's moves, discards included, in the order
they were found.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .attributes import DEFAULT_MESSAGE_BUDGET, Universe, fingerprint, UniverseTooLarge
from .explorer import TAU_LABEL, Walk, label_text, stimulus_label
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
    pretty_system,
    spine,
    subterms,
    value_sort_key,
)
from .component import hears
from .system import (
    SOut,
    comp_prefixes,
    msg_names,
    set_fuel,
    sys_deliver,
    system_steps,
)


def barbs(sys: System, defs: Definitions, universe: Universe) -> set:
    """Immediate observables: fingerprints and arities of enabled sends."""
    out = set()
    for lab, _ in system_steps(sys, defs, universe, {}):
        if isinstance(lab, SOut):
            out.add((fingerprint(lab.pred, universe), len(lab.values)))
    return out


def _input_arities(node) -> set[int]:
    """Numbers of variables of the input prefixes in a term."""
    return {len(n.vars) for n in subterms(node) if type(n) is In}


def _parts(sys: System) -> tuple[set, set]:
    """A state's components and the names its restrictions bind."""
    nodes = spine(sys)
    return {s for s in nodes if type(s) is Comp}, {s.name for s in nodes if type(s) is Nu}


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
    ``labels`` map the numbers back for the witness.  ``succ`` holds the
    explicit moves only: a state's steps, and the stimuli it handles
    through ``sys_deliver``, whose label numbers ``takes`` lists.  Every
    other label of ``stimuli`` is a discard, an implicit self-loop;
    ``moves`` puts those back.
    """

    states: list  # state number -> canonical System
    labels: list  # label number -> canonical label
    succ: dict  # state number -> dict[label number, tuple of distinct state numbers]
    takes: list  # state number -> frozenset of the stimulus labels sys_deliver handled
    stimuli: list  # label numbers of the stimuli, ascending
    truncated: bool
    reasons: list

    def moves(self, s: int) -> dict:
        """Every move of state ``s``, discards included, in the shape of
        ``succ``: step labels first, then stimulus labels in ascending
        order."""
        explicit, takes = self.succ[s], self.takes[s]
        out = {k: ts for k, ts in explicit.items() if k not in takes}
        for k in self.stimuli:
            if k not in takes:
                out[k] = (s,)
            elif k in explicit:  # its targets may all lie past the state budget
                out[k] = explicit[k]
        return out


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

    # (predicate, values, label number) of every stimulus, in offer order
    messages: list[tuple[Predicate, tuple[Value, ...], int]] = []
    mentions: dict[str, list[int]] = {}  # name -> the stimuli that mention it

    def add_message(pred, vals):
        key = stimulus_label(pred, vals, universe)
        if key in walk.label_ids:  # only stimuli intern input labels
            return
        if len(messages) >= message_budget:
            walk.note("stimulus budget exhausted")
            return
        for y in msg_names(pred, vals):
            mentions.setdefault(y, []).append(len(messages))
        messages.append((pred, vals, walk.intern(key)))

    for pred, vals in stimulus_messages(roots, defs, universe, message_budget):
        add_message(pred, vals)  # the baseline never exceeds the budget

    # each distinct component: [stimuli offered, those it receives, its inputs]
    heard: dict[Comp, list] = {}
    takes: dict[int, set[int]] = {}  # state -> stimulus labels sys_deliver handled
    offered: list[int] = []  # how many stimuli each state has seen
    while True:
        progressed = walk.step(add_message)
        offered += [0] * (len(walk.states) - len(offered))
        # offer any not-yet-offered stimuli to every stepped state
        for i, n in enumerate(offered):
            if n == len(messages):
                continue
            progressed = True
            s, handled = walk.states[i], set()
            comps, bound = _parts(s)
            for c in comps:
                entry = heard.get(c)
                if entry is None:
                    pre = comp_prefixes(c, defs, walk.memo)
                    entry = heard[c] = [0, set(), [x for x in pre if type(x[1]) is In]]
                seen, got, inputs = entry
                if inputs:
                    for m in range(seen, len(messages)):
                        pred, vals, _ = messages[m]
                        if hears(inputs, pred, vals):
                            got.add(m)
                entry[0] = len(messages)
                handled |= got
            # delivery renames a restriction whose name the stimulus mentions
            for y in bound:
                handled.update(mentions.get(y, ()))
            for m in sorted(handled):
                if m >= n:
                    pred, vals, k = messages[m]
                    takes.setdefault(i, set()).add(k)
                    for t in sys_deliver(s, pred, vals, defs, walk.memo):
                        walk.move(i, k, t)
            offered[i] = len(messages)
        if not progressed:
            break

    succ: dict[int, dict[int, tuple]] = {i: {} for i in range(len(walk.states))}
    for i, k, j in walk.moves:
        targets = succ[i].get(k, ())
        if j not in targets:
            succ[i][k] = targets + (j,)
    space = _Space(
        walk.states,
        walk.labels,
        succ,
        [frozenset(takes.get(i, ())) for i in range(len(walk.states))],
        [k for _, _, k in messages],
        bool(walk.reasons),
        walk.reasons,
    )
    return walk.roots, space


@dataclass
class BisimResult:
    equivalent: bool
    witness: dict | None
    truncated: bool
    reasons: list[str] = field(default_factory=list)


def _refine(space: _Space, weak: bool):
    """Partition refinement by successor signatures.

    Returns the moves of a state as the witness reads them (a function
    of the state number, saturated when ``weak``), the final block of
    each state (a list indexed by state number), and the partition
    history; two states are related iff they end up in the same block.
    """
    n = len(space.succ)
    if weak:
        succ, takes, tclo = _weak_closure(space)
        loops = tclo  # a discard leads to the whole tau-closure
        moves = functools.partial(_saturate, space.moves, tclo)
    else:
        succ, takes, loops = space.succ, space.takes, [(s,) for s in range(n)]
        moves = space.moves
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
            if takes[s]:
                # the discards lead every stimulus outside ``takes`` into
                # the blocks of ``loops``: key them by their complement
                sig ^= {
                    lab * n + b for b in {block[u] for u in loops[s]} for lab in takes[s]
                }
            refined.append(keys.setdefault((block[s], sig), len(keys)))
        if len(keys) == count:
            return moves, refined, history
        count = len(keys)
        block = refined
        history.append(block)


def _sep_round(p, q, history) -> int:
    """First refinement round that put p and q in different blocks."""
    for i, block in enumerate(history):
        if block[p] != block[q]:
            return i
    return len(history)  # never separated


def _mismatch(p, q, moves, block):
    """An attacker move from p that q cannot answer into the same block.

    Targets are tried in discovery order, a move back to p itself last:
    such a stutter restates the pair rather than explaining it.
    """
    replies = moves(q)
    for lab, targets in moves(p).items():
        answers = replies.get(lab, frozenset())
        answer_blocks = {block[u] for u in answers}
        for t in sorted(targets, key=lambda t: (t == p, t)):
            if block[t] not in answer_blocks:
                return (lab, t, answers)
    return None


def _saturate(moves, tclo, s) -> dict:
    """The weak moves of ``s`` over ``moves``: tau* for silent ones,
    tau* a tau* for visible ones, as sets of states."""
    d: dict = {TAU_LABEL: set(tclo[s])}
    for mid in tclo[s]:
        for lab, targets in moves(mid).items():
            if lab == TAU_LABEL:
                continue
            acc = d.setdefault(lab, set())
            for t in targets:
                acc |= tclo[t]
    return d


def _weak_closure(space: _Space):
    """Saturate the explicit moves.

    Returns the weak moves of each state, the stimuli some state of its
    tau-closure does not discard (the others lead to the whole
    tau-closure), and the tau-closures.
    """
    succ, takes = space.succ, space.takes
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
    wtakes: list[frozenset[int]] = []
    for s in range(n):
        mids = tclo[s]
        x = frozenset().union(*[takes[mid] for mid in mids])
        d = _saturate(succ.__getitem__, tclo, s)
        for lab in x:
            for mid in mids:
                if lab not in takes[mid]:  # mid discards it and stays put
                    d.setdefault(lab, set()).update(tclo[mid])
        weak[s] = {k: tuple(v) for k, v in d.items()}
        wtakes.append(x)
    return weak, wtakes, tclo


def _build_witness(p, q, space, moves, history):
    """The move that parted ``p`` and ``q``, then the pair it leads to.

    The move is read off the partition one round before the pair parted,
    so every answer to it was parted from its target in an earlier round:
    each level is strictly shallower, and the chain ends in a move with no
    answer at all.
    """
    block = history[_sep_round(p, q, history) - 1]
    for first, second, side in ((p, q, "left"), (q, p, "right")):
        miss = _mismatch(first, second, moves, block)
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
                node["continues"] = _build_witness(t, u, space, moves, history)
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
    moves, block, history = _refine(space, weak)
    if block[i1] == block[i2]:
        return BisimResult(True, None, space.truncated, space.reasons)
    witness = _build_witness(i1, i2, space, moves, history)
    return BisimResult(False, witness, space.truncated, space.reasons)

