"""State-keyed reference for bisimilarity, for differential tests.

It builds the joint space of two systems the way ``abcwb.equivalence``
defines it (the same stimulus pool grown by every emitted output, the
same canonical labels), but keys states by ``System`` and labels by
their canonical tuples, canonicalises every successor, gives every call
to ``system_steps`` and ``sys_deliver`` a memo of its own (so no state
reuses another's component steps), and decides bisimilarity as a naive
greatest fixpoint: start from every pair of states the two sides can
reach by equal labels and delete pairs with an unanswerable move until
none is left to delete.
"""

from __future__ import annotations

from abcwb.equivalence import DEFAULT_MESSAGE_BUDGET, stimulus_messages
from abcwb.explorer import canon_label, stimulus_label
from abcwb.syntax import canonicalize
from abcwb.system import SOut, TAU, set_fuel, sys_deliver, system_steps

TAU_KEY = canon_label(TAU, None)


def explore(roots, defs, universe, *, repl_bound, max_states, message_budget):
    """Initial states and ``{state: {label: set of states}}``."""
    inits = [canonicalize(set_fuel(r, repl_bound)) for r in roots]
    messages, seen = [], set()

    def offer(pred, vals):
        key = stimulus_label(pred, vals, universe)
        if key not in seen and len(messages) < message_budget:
            seen.add(key)
            messages.append((pred, vals))

    for pred, vals in stimulus_messages(roots, defs, universe, message_budget):
        offer(pred, vals)
    succ: dict = {}
    order: list = []
    offered: dict = {}
    stored: dict = {}  # each state to its one stored copy

    def add(s):
        """The stored copy of s, stored now if new; None when full."""
        if s not in stored:
            if len(order) >= max_states:
                return None
            stored[s], succ[s], offered[s] = s, {}, 0
            order.append(s)
        return stored[s]

    def record(s, lab, t):
        t = add(t)
        if t is not None:
            succ[s].setdefault(lab, set()).add(t)

    inits = [add(init) for init in inits]
    stepped = 0
    while True:
        progressed = False
        while stepped < len(order):
            s = order[stepped]
            stepped += 1
            progressed = True
            for lab, t in system_steps(s, defs, universe, {}):
                if isinstance(lab, SOut):
                    offer(lab.pred, lab.values)
                record(s, canon_label(lab, universe), canonicalize(t))
        for s in list(order):
            if offered[s] == len(messages):
                continue
            progressed = True
            for pred, vals in messages[offered[s]:]:
                lab = stimulus_label(pred, vals, universe)
                for t in sys_deliver(s, pred, vals, defs, {}):
                    record(s, lab, canonicalize(t))
            offered[s] = len(messages)
        if not progressed:
            return inits, succ


def saturate(succ):
    """Weak moves: tau* for silent ones, tau* a tau* for visible ones."""

    def silent_closure(s):
        seen, stack = {s}, [s]
        while stack:
            for t in succ[stack.pop()].get(TAU_KEY, ()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    closure = {s: silent_closure(s) for s in succ}
    weak = {}
    for s in succ:
        moves = {TAU_KEY: set(closure[s])}
        for mid in closure[s]:
            for lab, targets in succ[mid].items():
                if lab != TAU_KEY:
                    for t in targets:
                        moves.setdefault(lab, set()).update(closure[t])
        weak[s] = moves
    return weak


def related(succ, p, q) -> bool:
    """Whether p and q are bisimilar in ``succ``, by a pair fixpoint."""
    pairs, stack = set(), [(p, q)]
    while stack:
        pair = stack.pop()
        if pair in pairs:
            continue
        pairs.add(pair)
        a, b = pair
        for lab, targets in succ[a].items():
            for t in targets:
                stack.extend((t, u) for u in succ[b].get(lab, ()))

    def answered(a, b, flip) -> bool:
        for lab, targets in succ[a].items():
            answers = succ[b].get(lab, ())
            for t in targets:
                if not any(((u, t) if flip else (t, u)) in rel for u in answers):
                    return False
        return True

    rel = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            if not (answered(a, b, False) and answered(b, a, True)):
                rel.discard((a, b))
                changed = True
    return (p, q) in rel


def oracle_bisimilar(
    s1, s2, defs, universe, *, weak=False, repl_bound=3, max_states=2000,
    message_budget=DEFAULT_MESSAGE_BUDGET,
) -> bool:
    (i1, i2), succ = explore(
        (s1, s2), defs, universe, repl_bound=repl_bound, max_states=max_states,
        message_budget=message_budget,
    )
    return related(saturate(succ) if weak else succ, i1, i2)
