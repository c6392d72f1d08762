"""Seeded input generators for the swarm and encoding workloads.

Both generators keep the shape of their output fixed and let the seed
pick only names and attribute values (and, for broadcast-pi terms, the
order of parallel operands).
The amount of work a run does therefore barely depends on the seed,
while no two seeds feed the program the same text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Constants the robotics definitions already mention.  Generated values
# avoid them, so the finite value universe has the same size on every
# seed and predicate decisions cost the same.
_ROBOTICS_INTS = {0, 1, 2, 3, 4, 5, 20, 90, 100}


def swarm_system(seed: int) -> str:
    """`system:` section for the robotics definitions: two distinct robots
    and a replicated pool of identical explorers.

    The first robot has perceived the victim and can become the rescuer,
    so a pool copy that queries it and is answered becomes a helper.  The
    pool is a `!` component, so exploration runs on replication fuel and
    stops with "replication budget exhausted".
    """
    rng = random.Random(seed)
    ints = rng.sample([n for n in range(10, 90) if n not in _ROBOTICS_INTS], 9)
    ids, coords = ints[:3], ints[3:]
    robot = (
        "{{id := {id}, role := 'explorer', victimPerceived := {vp}, "
        "state := 'move', collision := ff, batteryLevel := 100, "
        "position := <{x}, {y}>}}: {body}"
    )
    parts = [
        robot.format(id=ids[0], vp="tt", x=coords[0], y=coords[1], body="Robot()"),
        robot.format(
            id=ids[1], vp="ff", x=coords[2], y=coords[3],
            body="(Rescuer() + Explorer())",
        ),
        "!" + robot.format(id=ids[2], vp="ff", x=coords[4], y=coords[5], body="Explorer()"),
    ]
    # the order stays fixed: the explored state count depends on it
    return "system:\n  " + "\n  || ".join(parts) + "\n"


@dataclass(frozen=True)
class Defect:
    """A known defect that makes a job fail today, with the failure it
    causes.  ``starts`` holds the allowed beginnings of that failure's
    message, ``<check>: <first message of the check>``."""

    what: str
    starts: tuple[str, ...]

    def explains(self, failures: list[str]) -> bool:
        """Whether ``failures`` is exactly the expected failure: one check
        fails, and its message begins as expected."""
        return len(failures) == 1 and failures[0].startswith(self.starts)


_NO_MATCH = "step bijection: no target successor translates source continuation after"


def _rec_listener_defect(channel: str, value: str) -> Defect:
    return Defect(
        "recursive sender beside a listener fails step bijection at depth 1",
        (f"{_NO_MATCH} ('out', '{channel}', ('{value}',), ()) at depth 1",),
    )


# The pinned broadcast-pi term: a recursive sender in parallel with a
# forwarder.  The correspondence check reports a step-bijection failure
# at depth 1 on it.
PINNED_TERM = "rec A(x). a<x>.A(x) @ (v) | a(y).b<y>.nil"
PINNED_DEFECT = _rec_listener_defect("b", "v")

_NAME_POOL = [
    f"{stem}{k}"
    for stem in ("ch", "ev", "msg", "req", "ack", "tok", "sig", "key", "out", "val")
    for k in range(10)
]


def _chain(n, key: str, depth: int, restricted: str) -> str:
    """Extrusion chain: a restricted name is sent along `depth` forwarders
    and finally used as a channel by the last one."""
    a = [n(f"{key}a{k}") for k in range(depth)]
    parts = [f"nu {restricted} ({a[0]}<{restricted}>.{restricted}<{n(key + 'v')}>.nil)"]
    for k in range(depth - 1):
        parts.append(f"{a[k]}(x).{a[k + 1]}<x>.nil")
    parts.append(f"{a[depth - 1]}(x).x(y).{n(key + 'done')}<y>.nil")
    return " | ".join(parts)


def encoding_family(seed: int) -> list[tuple[str, str, Defect | None]]:
    """Generated broadcast-pi terms as (label, text, defect) triples.

    ``defect`` is None when all four encoding checks are expected to pass,
    and otherwise the known defect that makes the term fail today.
    Terms that fail are kept, so ``failed`` reports the defects as
    measured and a later fix shows up as a rise in ``correct_share``.
    """
    rng = random.Random(seed)
    pool = iter(rng.sample(_NAME_POOL, len(_NAME_POOL)))
    names: dict[str, str] = {}

    def n(key: str) -> str:
        if key not in names:
            names[key] = next(pool)
        return names[key]

    def par(parts: list[str]) -> str:
        parts = list(parts)
        rng.shuffle(parts)
        return " | ".join(parts)

    terms: list[tuple[str, str, Defect | None]] = []

    # interleaved independent channels: the state space is a product
    chans = []
    for i in range(3):
        chans.append(f"{n(f'c{i}')}<{n(f'p{i}')}>.{n(f'd{i}')}<{n(f'q{i}')}>.nil")
        chans.append(f"{n(f'c{i}')}(x).{n(f'e{i}')}<x>.nil")
    terms.append(("channels-3", par(chans), None))

    # extrusion chains with distinct restricted names
    for count, depth in ((3, 3), (2, 4), (2, 3)):
        label = f"chains-{count}x{depth}"
        chains = [_chain(n, f"{label}/{i}", depth, f"r{i}") for i in range(count)]
        terms.append((label, par(chains), None))

    # two extrusion chains whose restrictions bind the same name
    shared = par([_chain(n, f"shared/{i}", 2, "r") for i in range(2)])
    terms.append((
        "chains-shared-nu", shared,
        Defect(
            "parallel restrictions of one name fail step bijection at depth 0",
            tuple(
                f"{_NO_MATCH} ('out', '{n(f'shared/{i}a0')}', ('_n0',), ('_n0',)) at depth 0"
                for i in range(2)
            ),
        ),
    ))

    # sums on both sides of a communication
    a, b, c, d, v, w = (n(k) for k in ("sa", "sb", "sc", "sd", "sv", "sw"))
    terms.append((
        "sums",
        par([f"{a}<{v}>.nil + {b}<{w}>.nil", f"{a}(x).{c}<x>.nil + {b}(y).{d}<y>.nil"]),
        None,
    ))

    # recursion: alone, through a silent step, as a channel parameter,
    # and beside a listener (the pinned shape)
    a, b, v, w = (n(k) for k in ("ra", "rb", "rv", "rw"))
    terms.append(("rec-tau", f"rec A(x). {a}<x>.tau.A(x) @ ({w})", None))
    terms.append(("rec-param", par([f"rec A(x). x<{v}>.A(x) @ ({a})", f"{a}(y).nil"]), None))
    terms.append((
        "rec-listener", par([f"rec A(x). {a}<x>.A(x) @ ({v})", f"{a}(y).{b}<y>.nil"]),
        _rec_listener_defect(b, v),
    ))
    return terms
