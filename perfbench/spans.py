"""Span tracer for the traced benchmark run.

A layer is traced by replacing a function's name in the modules that
call it (``abcwb.explorer.canonicalize``, ``abcwb.system.is_ff``, ...).
Calls a module makes to its own functions go through its own globals and
stay untraced, so recursion inside a layer is not counted twice.  The
functions marked ``own`` are sub-layers of their module (``_refine`` in
``equivalence``, ``bpi_steps`` in ``bpi``, ...) and are also wrapped in
their defining module; a call that re-enters a function already on the
span stack is not recorded again.

Every span records its name, its parent span, its start and its end.
Spans stay in memory until :meth:`Tracer.take`, which derives calls,
total time and self time (duration minus the time covered by child
spans) per name and clears them.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from collections import defaultdict

# (defining module, function, also wrapped inside its defining module)
TRACED = [
    ("attributes", "is_ff", False),
    ("attributes", "fingerprint", False),
    ("syntax", "canonicalize", False),
    ("syntax", "pretty_system", False),
    ("syntax", "alpha_equal", False),
    ("component", "output_steps", False),
    ("component", "deliver", False),
    ("system", "system_steps", False),
    ("system", "sys_deliver", False),
    ("explorer", "canon_label", True),
    ("explorer", "state_rng", True),
    ("equivalence", "_explore_pair", True),
    ("equivalence", "_refine", True),
    ("equivalence", "_weak_closure", True),
    ("equivalence", "_build_witness", True),
    ("bpi", "bpi_steps", True),
    ("bpi", "encode", True),
]

# Modules whose globals are searched for call sites.  ``cli`` is left out:
# the benchmark calls the library functions the CLI calls, not the CLI.
CALLERS = [
    "syntax", "attributes", "parser", "component", "system",
    "explorer", "equivalence", "bpi",
]

# Work the tracer does for itself inside a span (hashing arguments for
# distinct counts, reading result sizes).  It is a child span, so no
# layer's self time includes it.
BOOKKEEPING = "trace.bookkeeping"


def _explore_pair_counts(tracer, result):
    _, space = result
    tracer.counts["equivalence.joint_states"] += len(space.succ)
    tracer.counts["equivalence.edges"] += sum(
        len(targets) for moves in space.succ.values() for targets in moves.values()
    )


def _refine_counts(tracer, result):
    _, _, history = result
    tracer.counts["equivalence.refine.rounds"] += len(history)


# Arguments whose distinct values are counted: the ceiling for memoising
# the function.  A universe is keyed by value, not by ``id``: objects freed
# between jobs leave their addresses to new ones.
_KEYS = {
    "fingerprint": lambda pred, universe: hash((pred, universe)),
    "canonicalize": lambda sys: hash(sys),
}
_ON_RETURN = {
    "_explore_pair": _explore_pair_counts,
    "_refine": _refine_counts,
}


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._active: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.distinct: dict[str, set[int]] = defaultdict(set)

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        i = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self._end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, module, attr: str, name: str, key, on_return) -> None:
        fn = getattr(module, attr)
        active, distinct = self._active, self.distinct
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            active.add(name)
            i = open_(name)
            try:
                result = fn(*args, **kwargs)
                if key is not None or on_return is not None:
                    b = open_(BOOKKEEPING)
                    if key is not None:
                        distinct[name].add(key(*args, **kwargs))
                    if on_return is not None:
                        on_return(self, result)
                    close(b)
            finally:
                close(i)
                active.discard(name)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, fn))

    def install(self) -> None:
        """Wrap every traced function at each of its call sites."""
        if self._patches:
            return
        mods = {m: importlib.import_module(f"abcwb.{m}") for m in CALLERS}
        for defmod, func, own in TRACED:
            original = getattr(mods[defmod], func)
            name = f"{defmod}.{func.lstrip('_')}"
            key, on_return = _KEYS.get(func), _ON_RETURN.get(func)
            for caller, mod in mods.items():
                if getattr(mod, func, None) is not original:
                    continue
                if caller == defmod and not own:
                    continue
                self._wrap(mod, func, name, key, on_return)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def take(self) -> tuple[dict[str, dict[str, float]], dict[str, float]]:
        """Per span name: calls, total and self seconds, and the distinct
        argument ratio where one is kept; and the counts recorded at span
        boundaries.  Then forget all spans and counts."""
        n = len(self._start)
        child = [0.0] * n
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self._names
        }
        # children open after their parent, so a backward pass has seen
        # every child of a span before the span itself
        for i in range(n - 1, -1, -1):
            dur = self._end[i] - self._start[i]
            row = out[self._names[self._name[i]]]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
            p = self._parent[i]
            if p >= 0:
                child[p] += dur
        for name, keys in self.distinct.items():
            row = out[name]  # a key is only added inside the name's span
            row["distinct_ratio"] = len(keys) / row["calls"]
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        self.distinct.clear()
        counts = dict(self.counts)
        self.counts.clear()
        return out, counts
