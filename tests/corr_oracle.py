"""Reference correspondence check, for differential tests.

``abcwb.bpi.check_correspondence`` translates each source component once
per check and reuses that translation in every successor that keeps the
component.  This module checks the plain way: every matched source
successor is translated from scratch, with its own fresh names, so
tests can check the shared translations against it.
"""

from collections import deque

from abcwb.attributes import Universe
from abcwb.bpi import (
    MAX_PAIRS,
    BP,
    Correspondence,
    _canon_abc_label,
    _canon_bpi_label,
    _Encoder,
    bpi_steps,
)
from abcwb.syntax import System, canonicalize
from abcwb.system import system_steps


def check_correspondence(p: BP, *, depth: int = 6) -> Correspondence:
    first = _Encoder(p, {})
    sys0, defs = first.proc(p), first.defs
    universe = Universe.for_systems([sys0], defs)
    failures: list[str] = []
    seen: set[tuple] = set()
    frontier = deque([(p, sys0, canonicalize(sys0), 0)])
    checked = 0
    truncated = False
    memo: dict = {}

    while frontier:
        src, tgt, canon_tgt, d = frontier.popleft()
        key = (src, canon_tgt)
        if key in seen:
            continue
        if checked == MAX_PAIRS:
            truncated = True
            break
        seen.add(key)
        checked += 1
        if d >= depth:
            truncated = True
            continue

        by_label_src: dict[tuple, list[BP]] = {}
        for lab, q in bpi_steps(src):
            by_label_src.setdefault(_canon_bpi_label(lab), []).append(q)
        by_label_tgt: dict[tuple, list[System]] = {}
        for lab, t in system_steps(tgt, defs, universe, memo):
            by_label_tgt.setdefault(_canon_abc_label(lab, universe), []).append(t)

        if set(by_label_src) != set(by_label_tgt):
            failures.append(
                f"label sets differ at depth {d}: "
                f"source={sorted(by_label_src)} target={sorted(by_label_tgt)}"
            )
            continue

        for lab_key, src_succs in by_label_src.items():
            tgt_succs = by_label_tgt[lab_key]
            if len(src_succs) != len(tgt_succs):
                failures.append(
                    f"branching differs on {lab_key}: "
                    f"{len(src_succs)} source vs {len(tgt_succs)} target"
                )
                continue
            # each target successor is canonicalised once
            unmatched = [(canonicalize(t), t) for t in tgt_succs]
            for q in src_succs:
                canon_q = canonicalize(_Encoder(q, first.recs).proc(q))
                hit = next((i for i, (c, _) in enumerate(unmatched) if c == canon_q), None)
                if hit is None:
                    failures.append(
                        f"no target successor translates source continuation "
                        f"after {lab_key} at depth {d}"
                    )
                else:
                    canon_t, t = unmatched.pop(hit)
                    frontier.append((q, t, canon_t, d + 1))

    return Correspondence(not failures, checked, failures, truncated)
