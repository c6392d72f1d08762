"""Bounded construction of the labeled transition system of a program.

States are alpha-canonical system terms, so exploration identifies
states up to renaming of restricted names and input variables.  Labels
are canonical too: the predicate on an output is keyed by its semantic
fingerprint (equivalent predicates give the same label) and extruded
names are replaced positionally, so alpha-variant labels coincide.

Randomized payloads draw from a generator seeded by the run seed and
the canonical state text.  Revisiting a state therefore replays the
same draws, which keeps the graph a sound description of one run per
seed rather than an unsound mix of runs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from .attributes import Universe, fingerprint
from .syntax import (
    Comp,
    Definitions,
    System,
    Value,
    canonicalize,
    children,
    free_names,
    names_in_value,
    pretty_pred,
    pretty_system,
    rename_free,
)
from .system import SIn, SOut, TAU, set_fuel, system_steps


@dataclass
class Lts:
    """Explored fragment of a system's transition graph."""

    states: list[System]
    transitions: list[tuple[int, tuple, int]]
    seed: int
    initial: int = 0
    truncated: bool = False
    reasons: list[str] = field(default_factory=list)


def state_seed(seed: int, state: System) -> int:
    """Integer seed of one state's generator under one run seed."""
    key = f"{seed}:{pretty_system(state)}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def state_rng(seed: int, state: System) -> random.Random:
    """Deterministic generator for one state under one run seed."""
    return random.Random(state_seed(seed, state))


def canon_label(lab, universe: Universe) -> tuple:
    """Canonical, hashable form of a transition label.

    Outputs: extruded names are rewritten to positional placeholders in
    order of first occurrence (payload first, then predicate), and the
    predicate is keyed by semantic fingerprint.
    """
    if lab is TAU:
        return ("tau",)
    if isinstance(lab, SIn):
        return ("in", fingerprint(lab.pred, universe), lab.values)
    if isinstance(lab, SOut):
        pred, values = lab.pred, lab.values
        order: list[str] = []
        for v in values:
            for n in sorted(names_in_value(v)):
                if n in lab.bound and n not in order:
                    order.append(n)
        for n in sorted(free_names(pred)):
            if n in lab.bound and n not in order:
                order.append(n)
        for k, n in enumerate(order):
            ph = f"_n{k}"
            if n != ph:
                pred = rename_free(pred, n, ph)
                values = tuple(rename_free(v, n, ph) for v in values)
        placeholders = tuple(f"_n{k}" for k in range(len(order)))
        return ("out", fingerprint(pred, universe), values, placeholders)
    raise TypeError(lab)


def label_text(lab) -> str:
    if lab is TAU:
        return "tau"
    if isinstance(lab, SIn):
        vals = ", ".join(str(v) for v in lab.values)
        return f"in ({pretty_pred(lab.pred)})({vals})"
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
    as truncated with a reason.
    """
    if universe is None:
        universe = Universe.for_systems([sys], defs)
    init = canonicalize(set_fuel(sys, repl_bound))
    index: dict[System, int] = {init: 0}
    states = [init]
    transitions: list[tuple[int, tuple, int]] = []
    reasons: list[str] = []
    truncated = False

    frontier = [(0, 0)]  # (state index, depth)
    pos = 0
    while pos < len(frontier):
        i, depth = frontier[pos]
        pos += 1
        if max_depth is not None and depth >= max_depth:
            truncated = True
            if "depth bound reached" not in reasons:
                reasons.append("depth bound reached")
            continue
        state = states[i]
        rng = state_rng(seed, state)
        notes: list[str] = []
        for lab, succ in system_steps(state, defs, universe, rng, notes):
            succ = canonicalize(succ)
            j = index.get(succ)
            if j is None:
                if len(states) >= max_states:
                    truncated = True
                    if "state budget exhausted" not in reasons:
                        reasons.append("state budget exhausted")
                    continue
                j = len(states)
                index[succ] = j
                states.append(succ)
                frontier.append((j, depth + 1))
            transitions.append((i, canon_label(lab, universe), j))
        for note in notes:
            truncated = True
            if note not in reasons:
                reasons.append(note)

    return Lts(states, transitions, seed, 0, truncated, reasons)


def random_trace(
    sys: System,
    defs: Definitions,
    universe: Universe = None,
    *,
    seed: int = 0,
    steps: int = 20,
    repl_bound: int = 3,
) -> list[tuple[str, System]]:
    """One random walk; returns (label text, state) pairs after the start."""
    if universe is None:
        universe = Universe.for_systems([sys], defs)
    state = canonicalize(set_fuel(sys, repl_bound))
    picker = random.Random(seed)
    out: list[tuple[str, System]] = []
    for _ in range(steps):
        rng = state_rng(seed, state)
        succs = system_steps(state, defs, universe, rng)
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
    if type(sys) is Comp:
        return sys.env.get(attr) == value
    return any(env_has(c, attr, value) for c in children(sys))


def witness_path(lts: Lts, target: int) -> list[str]:
    """Shortest label sequence from the initial state to ``target``."""
    from collections import deque

    prev: dict[int, tuple[int, tuple]] = {}
    seen = {lts.initial}
    q = deque([lts.initial])
    fwd: dict[int, list[tuple[tuple, int]]] = {}
    for i, lab, j in lts.transitions:
        fwd.setdefault(i, []).append((lab, j))
    while q:
        cur = q.popleft()
        if cur == target:
            break
        for lab, nxt in fwd.get(cur, ()):
            if nxt not in seen:
                seen.add(nxt)
                prev[nxt] = (cur, lab)
                q.append(nxt)
    if target not in seen:
        return ["(unreachable)"]
    path = []
    cur = target
    while cur != lts.initial:
        src, lab = prev[cur]
        path.append(f"{label_text(lab)} -> [{cur}] {pretty_system(lts.states[cur])}")
        cur = src
    path.reverse()
    return [f"[{lts.initial}] {pretty_system(lts.states[lts.initial])}"] + path


def lts_to_dict(lts: Lts) -> dict:
    return {
        "seed": lts.seed,
        "initial": lts.initial,
        "truncated": lts.truncated,
        "reasons": lts.reasons,
        "states": [pretty_system(s) for s in lts.states],
        "transitions": [
            {"from": i, "label": label_text(lab), "to": j}
            for i, lab, j in lts.transitions
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
    for i, lab, j in lts.transitions:
        lines.append(f"  [{i}] --{label_text(lab)}--> [{j}]")
    return "\n".join(lines)
