"""Partition refinement over fully built discard loops, for differential
tests.

This is how ``abcwb.equivalence`` refined before discards became
implicit: every state carries a self-loop for each stimulus it
discards, the weak closure saturates over all of them, and a state's
signature is the set of every (label, target block) pair of its moves.
It takes the moves as ``{state number: {label number: targets}}``, which
``full_succ`` builds from the engine's space.
"""

from __future__ import annotations

from abcwb.explorer import TAU_LABEL


def full_succ(space) -> dict:
    """Every move of every state of an engine ``_Space``, discards included."""
    return {s: space.moves(s) for s in space.succ}


def weak_closure(succ):
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


def refine(succ, weak: bool):
    """The (possibly saturated) moves, the final block of each state and
    the partition history."""
    if weak:
        succ = weak_closure(succ)
    n = len(succ)
    block = [0] * n
    history = [block]
    count = 1
    while True:
        keys: dict = {}
        refined = []
        for s in range(n):
            sig = frozenset(
                lab * n + block[t] for lab, ts in succ[s].items() for t in ts
            )
            refined.append(keys.setdefault((block[s], sig), len(keys)))
        if len(keys) == count:
            return succ, refined, history
        count = len(keys)
        block = refined
        history.append(block)
