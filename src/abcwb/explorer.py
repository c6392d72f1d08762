"""Bounded construction of the labeled transition system of a program.

States are alpha-canonical system terms, so exploration identifies
states up to renaming of restricted names and input variables.  Labels
are canonical too: the predicate on an output is keyed by its semantic
fingerprint (equivalent predicates give the same label) and extruded
names are replaced positionally, so alpha-variant labels coincide.

One breadth-first ``Walk`` numbers states and labels, records moves,
applies the state and depth bounds and collects truncation reasons.
``build_lts`` runs it from one root; bisimulation runs it from two and
adds stimuli (see ``equivalence``).  Witnesses follow the move that
first found each state, which breadth-first order makes a shortest
path.

A walk keeps one memo of component steps for its lifetime (see
``system.system_steps``): with ``rand`` a choice, a component's sends and
deliveries depend only on the component, so each is computed once.  No
state depends on the run seed; ``trace`` alone draws from it.

States are canonical by construction where they can be.  The memo holds
canonical, interned components (see ``system``).  A root without a
restriction reaches only states without one, since no component holds a
restriction and no step or stimulus adds one, and such a state is
canonical when its components are (see ``syntax.canonicalize``).  So a
walk whose roots hold no ``Nu`` looks each move target up as it is
built; only a walk with a restricted root canonicalises its targets.
That reuses what each component caches on itself: a component shared by
many states is canonicalised once per renaming of its free names,
wherever it sits, and printed once.  The memo also interns the ``||``
nodes above the components and keeps their steps (see ``system``), so a
move to a known state builds nothing and is found by identity.  A new
state ``L || R`` costs the steps of whichever operand no earlier state
had, and then one delivery of each send of either operand to the other,
a memo lookup per component that hears it.  Likewise each raw step
label is mapped to its label number once, and ``canon_label`` runs only
for a label not seen before; a render formats each interned label once.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

from .attributes import Universe, fingerprint
from .syntax import (
    Comp,
    Definitions,
    Name,
    System,
    Value,
    canonicalize,
    fresh_names,
    pretty_pred,
    pretty_system,
    rename,
    spine,
    subterms,
)
from .system import SOut, TAU, msg_names, restricted, set_fuel, spent, system_steps


@dataclass
class Lts:
    """Explored fragment of a system's transition graph."""

    states: list[System]
    transitions: list[tuple[int, tuple, int]]
    seed: int
    initial: int = 0
    truncated: bool = False
    reasons: list[str] = field(default_factory=list)
    # state number -> number of the transition that first reached it
    found_by: list[int | None] = field(default_factory=list)


def state_rng(seed: int) -> random.Random:
    """The generator ``random_trace`` draws its path from."""
    return random.Random(seed)


def canon_label(lab, universe: Universe) -> tuple:
    """Canonical, hashable form of a step label, ``TAU`` or an ``SOut``.

    Outputs: extruded names are rewritten to the placeholders ``_n0,
    _n1, ...`` that the label's free names leave over, in order of first
    occurrence (payload items left to right, then predicate), and the
    predicate is keyed by semantic fingerprint.
    """
    if lab is TAU:
        return ("tau",)
    pred, values, bound = lab.pred, lab.values, lab.bound
    order: list[str] = []
    for part in (*values, pred):
        for n in _atoms(part):
            if n in bound and n not in order:
                order.append(n)
    free = msg_names(pred, values) - bound
    placeholders = tuple(itertools.islice(fresh_names(free, "n"), len(order)))
    sigma = {n: p for n, p in zip(order, placeholders) if n != p}
    if sigma:
        # all at once: one name at a time could send _n1 to an _n0
        # not renamed yet
        pred = rename(pred, sigma)
        values = tuple(rename(v, sigma) for v in values)
    return ("out", fingerprint(pred, universe), values, placeholders)


def stimulus_label(pred, values, universe: Universe) -> tuple:
    """Canonical label of a message offered from outside: no step yields
    an input, so this is the one form an input label takes."""
    return ("in", fingerprint(pred, universe), values)


def _atoms(node):
    """The ``Name`` atoms of a value or predicate, left to right."""
    return (n.atom for n in subterms(node) if type(n) is Name)


def label_text(lab) -> str:
    if lab is TAU:
        return "tau"
    if isinstance(lab, SOut):
        vals = ", ".join(str(v) for v in lab.values)
        nu = f"nu {', '.join(sorted(lab.bound))} " if lab.bound else ""
        return f"out {nu}({vals})@({pretty_pred(lab.pred)})"
    # canonical tuples
    if lab[0] == "tau":
        return "tau"
    if lab[0] == "in":
        return f"in fp={lab[1]} vals=({', '.join(str(v) for v in lab[2])})"
    vals = ", ".join(str(v) for v in lab[2])
    nu = f"nu {', '.join(lab[3])} " if lab[3] else ""
    return f"out {nu}fp={lab[1]} vals=({vals})"


TAU_LABEL = 0


class Walk:
    """Breadth-first walk over canonical states from one or more roots.

    States are numbered in discovery order and canonical labels are
    interned to numbers, tau being ``TAU_LABEL``.  Every move is kept as
    a (state, label number, state) triple in the order it is found, and
    ``found_by[j]`` is the number of the move that first reached state
    ``j`` (None for a root); breadth-first order makes those moves a
    shortest-path tree.  A new state beyond ``max_states`` is dropped
    together with its move, and a state at ``max_depth`` is not stepped.
    ``memo`` keeps the steps of every stepped state and of its parts, and
    ``label_of`` the label number of every raw step label.  A target is
    canonicalised only when ``restricted``, that is when a root holds a
    restriction (see the module doc).
    Every bound that was hit leaves its reason in ``reasons`` once.
    """

    def __init__(
        self,
        roots,
        defs: Definitions,
        universe: Universe,
        *,
        repl_bound: int,
        max_states: int,
        max_depth: int = None,
    ):
        self.defs, self.universe = defs, universe
        self.max_states, self.max_depth = max_states, max_depth
        self.states: list[System] = []
        self.index: dict[System, int] = {}
        self.depth: list[int] = []
        self.found_by: list[int | None] = []
        self.stepped = 0  # states stepped (or cut by the depth bound) so far
        self.memo: dict = {}
        self.labels: list[tuple] = [canon_label(TAU, universe)]
        self.label_ids: dict[tuple, int] = {self.labels[0]: TAU_LABEL}
        self.label_of: dict = {TAU: TAU_LABEL}  # raw step label -> label number
        self.moves: list[tuple[int, int, int]] = []
        self.reasons: list[str] = []
        roots = [canonicalize(set_fuel(r, repl_bound)) for r in roots]
        self.restricted = any(map(restricted, roots))
        self.roots = [self._visit(r, 0, None) for r in roots]

    def note(self, reason: str) -> None:
        if reason not in self.reasons:
            self.reasons.append(reason)

    def intern(self, label: tuple) -> int:
        k = self.label_ids.get(label)
        if k is None:
            k = self.label_ids[label] = len(self.labels)
            self.labels.append(label)
        return k

    def _visit(self, state: System, depth: int, found_by: int | None) -> int | None:
        j = self.index.get(state)
        if j is None:
            if len(self.states) >= self.max_states:
                self.note("state budget exhausted")
                return None
            j = self.index[state] = len(self.states)
            self.states.append(state)
            self.depth.append(depth)
            self.found_by.append(found_by)
        return j

    def move(self, i: int, k: int, target: System) -> None:
        """Record a move of state ``i`` under label number ``k``.

        The target is canonicalised first if the walk is restricted and
        then looked up in the index like any other state, a self-loop
        included; a new one past the state budget drops the move.
        """
        if self.restricted:
            target = canonicalize(target)
        j = self._visit(target, self.depth[i] + 1, len(self.moves))
        if j is not None:
            self.moves.append((i, k, j))

    def step(self, on_output=None) -> bool:
        """Step every state not stepped yet, states found meanwhile
        included.  ``on_output(pred, values)`` hears every output before
        its move is recorded.  Returns whether there was such a state."""
        start = self.stepped
        while self.stepped < len(self.states):
            i = self.stepped
            self.stepped += 1
            if self.max_depth is not None and self.depth[i] >= self.max_depth:
                self.note("depth bound reached")
                continue
            state = self.states[i]
            for lab, t in system_steps(state, self.defs, self.universe, self.memo):
                if on_output is not None and isinstance(lab, SOut):
                    on_output(lab.pred, lab.values)
                k = self.label_of.get(lab)
                if k is None:
                    k = self.label_of[lab] = self.intern(canon_label(lab, self.universe))
                self.move(i, k, t)
            if spent(state):
                self.note("replication budget exhausted")
        return self.stepped > start


def build_lts(
    sys: System,
    defs: Definitions,
    universe: Universe = None,
    *,
    seed: int = 0,
    max_states: int = 10_000,
    max_depth: int = None,
    repl_bound: int = 3,
) -> Lts:
    """Breadth-first exploration up to the given bounds.

    Replication is stamped with ``repl_bound`` unfoldings before the
    walk starts; running out of states, depth or fuel marks the result
    as truncated with a reason.  ``seed`` is only echoed in the result.
    """
    if universe is None:
        universe = Universe.for_systems([sys], defs)
    walk = Walk(
        [sys], defs, universe, repl_bound=repl_bound,
        # the initial state is kept whatever the budget
        max_states=max(max_states, 1), max_depth=max_depth,
    )
    walk.step()
    labels = walk.labels
    transitions = [(i, labels[k], j) for i, k, j in walk.moves]
    return Lts(walk.states, transitions, seed, 0, bool(walk.reasons), walk.reasons,
               walk.found_by)


def random_trace(
    sys: System,
    defs: Definitions,
    universe: Universe,
    *,
    seed: int = 0,
    steps: int = 20,
    repl_bound: int = 3,
) -> list[tuple[str, System]]:
    """One random walk; returns (label text, state) pairs after the start."""
    state = canonicalize(set_fuel(sys, repl_bound))
    picker, memo = state_rng(seed), {}
    out: list[tuple[str, System]] = []
    for _ in range(steps):
        succs = system_steps(state, defs, universe, memo)
        if not succs:
            break
        lab, nxt = picker.choice(succs)
        state = canonicalize(nxt)
        out.append((label_text(lab), state))
    return out


def reachable_matching(lts: Lts, match) -> int | None:
    """Index of the first explored state satisfying ``match``, else None."""
    for i, s in enumerate(lts.states):
        if match(s):
            return i
    return None


def env_has(sys: System, attr: str, value: Value) -> bool:
    """Whether any component of the system maps ``attr`` to ``value``."""
    return any(type(s) is Comp and s.env.get(attr) == value for s in spine(sys))


def witness_path(lts: Lts, target: int) -> list[str]:
    """Shortest label sequence from the initial state to ``target``:
    the moves that first found each state on the way."""
    path = []
    cur = target
    while cur != lts.initial:
        src, lab, _ = lts.transitions[lts.found_by[cur]]
        path.append(f"{label_text(lab)} -> [{cur}] {pretty_system(lts.states[cur])}")
        cur = src
    path.reverse()
    return [f"[{lts.initial}] {pretty_system(lts.states[lts.initial])}"] + path


def _label_texts(lts: Lts) -> list[str]:
    """The label text of each transition.  ``Walk`` interns labels, so
    many transitions share one label object, and each is formatted once."""
    texts: dict[int, str] = {}  # the transitions hold every label keyed here
    out = []
    for _, lab, _ in lts.transitions:
        text = texts.get(id(lab))
        if text is None:
            text = texts[id(lab)] = label_text(lab)
        out.append(text)
    return out


def lts_to_dict(lts: Lts) -> dict:
    return {
        "seed": lts.seed,
        "initial": lts.initial,
        "truncated": lts.truncated,
        "reasons": lts.reasons,
        "states": [pretty_system(s) for s in lts.states],
        "transitions": [
            {"from": i, "label": text, "to": j}
            for (i, _, j), text in zip(lts.transitions, _label_texts(lts))
        ],
    }


def lts_to_json(lts: Lts) -> str:
    return json.dumps(lts_to_dict(lts), indent=2)


def lts_to_text(lts: Lts) -> str:
    lines = [
        f"seed: {lts.seed}",
        f"states: {len(lts.states)}",
        f"transitions: {len(lts.transitions)}",
        f"truncated: {'yes (' + '; '.join(lts.reasons) + ')' if lts.truncated else 'no'}",
    ]
    for i, s in enumerate(lts.states):
        mark = "*" if i == lts.initial else " "
        lines.append(f"{mark}[{i}] {pretty_system(s)}")
    for (i, _, j), text in zip(lts.transitions, _label_texts(lts)):
        lines.append(f"  [{i}] --{text}--> [{j}]")
    return "\n".join(lines)
