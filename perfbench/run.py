"""abcwb benchmark: time to a verdict on explore, swarm, bisim and encoding.

Run from the repository root:

    python3 perfbench/run.py --workload explore --seed 1 --seconds 10 --trace 0

A run is one single-threaded process and a closed loop with one client:
it builds the workload's inputs from ``--seed``, sets them up several
times (parse, value universe and, for encoding, translation), then runs
the workload's job list back to back.  One pass over the job list is a
round; a run makes one round, and another while it should end within
``--seconds``.  Every job's verdict is checked against a known answer:
hand-written, or, for the broadcast-pi terms, that all four encoding
checks pass against ``bpi.py``'s independent reference semantics.
Nothing is taken from the explorer's own output.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` rounds alternate between traced
and untraced, and it holds the per-layer metrics (see ``spans.py``).
``gen.py`` generates the swarm and encoding inputs; ``selfcheck.py``
checks that counts and reports repeat across runs and hash seeds.

``failed`` counts jobs whose verdict differs from the known answer or
that raise.  Some jobs fail today because of known defects of the
program; each such job names its defect and the failure it causes
(``gen.Defect``).  ``correct`` is false when a job fails in any other
way, or when two rounds render different reports, so a new wrong
verdict is caught while the known ones are measured.

On a machine whose cores and caches are shared with other work, speed
can change by a third for ten seconds or more at a time.  A run therefore
spreads its samples over its whole length.  ``verdict_s`` is the median
round.  ``setup_s`` is the fastest set-up, as ``timeit`` advises for
timings of milliseconds: the median set-up of a run moves with the share
of the run the machine spent slow, and so differs far more between runs
than the fastest set-up does.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(ROOT, "corpus")

# Set-up takes milliseconds, so it is repeated.  The machine's speed
# drifts over seconds, so the repetitions are spread over the whole run:
# SETUP_FIRST seconds before the first round, then, in an untraced run,
# before each job, SETUP_SHARE of the time since the last set-up (at
# least one set-up).  That time is not counted in the round's.
SETUP_FIRST = 0.1
SETUP_SHARE = 0.05
# explore/reach: the CLI's state budget, and two replication unfoldings as
# in the acceptance test for helper reachability (the robotics space is
# complete at that bound, so the `nobody` query is conclusive).
MAX_STATES = 10_000
REPL_BOUND = 2
# The CLI's defaults for bisim and check-encoding.
BISIM_MAX_STATES = 2000
BISIM_REPL_BOUND = 3
ENCODING_DEPTH = 6

_NOSPAN = contextlib.nullcontext()


def _nospan(name):
    return _NOSPAN


def _read(*parts) -> str:
    with open(os.path.join(ROOT, *parts)) as f:
        return f.read()


class Tally:
    """Jobs attempted, failed and decided over a whole run."""

    def __init__(self, between=None):
        self.between = between  # called before each job
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.unexplained: list[str] = []
        self.failures: dict[str, str] = {}

    def job(self, name: str, check, defect=None) -> None:
        """Run ``check() -> (failures, decided)`` as one job; ``failures``
        lists how the outcome differs from the known answer."""
        if self.between:
            self.between()
        self.attempted += 1
        try:
            failures, decided = check()
        except Exception as e:  # a job that raises is a failed job
            failures, decided = [f"raised {type(e).__name__}: {e}"], False
        self.decided += bool(decided)
        if failures:
            self.failed += 1
            if defect is not None and defect.explains(failures):
                self.failures[name] = f"known defect: {defect.what}"
            else:
                self.failures[name] = "; ".join(failures)
                self.unexplained.append(name)


def _role_somewhere(sys_, role) -> bool:
    """Whether a component of the state has ``role`` (independent of
    ``explorer.env_has``)."""
    from abcwb.syntax import Comp

    stack = [sys_]
    while stack:
        s = stack.pop()
        if isinstance(s, Comp):
            if s.env.get("role") == role:
                return True
        else:
            stack.extend(getattr(s, f) for f in ("left", "right", "inner") if hasattr(s, f))
    return False


class Explore:
    """`corpus/robotics.abc`: one exploration, two reach queries, a render."""

    name = "explore"

    def __init__(self, seed: int):
        self.seed = seed

    def source(self) -> str:
        return _read("corpus", "robotics.abc")

    def load(self) -> None:
        self.text = self.source()

    def setup(self, span) -> None:
        from abcwb.attributes import Universe
        from abcwb.parser import parse_program

        with span("parser.parse"):
            self.prog = parse_program(self.text)
        with span("attributes.universe"):
            self.universe = Universe.for_program(self.prog)

    def round(self, span, tally: Tally, counts, h) -> None:
        from abcwb.explorer import build_lts

        prog = self.prog
        with span("explorer.build_lts"):
            lts = build_lts(
                prog.main, prog.defs, self.universe, seed=self.seed,
                max_states=MAX_STATES, repl_bound=REPL_BOUND,
            )
        counts["explorer.builds"] += 1
        counts["explorer.states"] += len(lts.states)
        counts["explorer.transitions"] += len(lts.transitions)
        tally.job("reach role='helper'", lambda: self._helper(lts, span, h))
        tally.job("reach role='nobody'", lambda: self._nobody(lts, span, h))
        tally.job("render", lambda: self._render(lts, span, h))

    def _helper(self, lts, span, h):
        """Known answer: reachable, with a witness from the initial state
        along explored transitions to a state holding a helper."""
        from abcwb.explorer import env_has, label_text, reachable_matching, witness_path
        from abcwb.syntax import Name, pretty_system

        helper = Name("helper")
        with span("explorer.reach"):
            hit = reachable_matching(lts, lambda s: env_has(s, "role", helper))
            if hit is None:
                return ["helper not reachable"], True
            report = [f"reached at state {hit}: {pretty_system(lts.states[hit])}"]
            report += witness_path(lts, hit)
        h.update("\n".join(report).encode())
        # report[1] is the initial state, each later line one move
        if report[1] != f"[{lts.initial}] {pretty_system(lts.states[lts.initial])}":
            return ["witness does not start at the initial state"], True
        steps = []
        for line in report[2:]:
            lab, _, rest = line.partition(" -> [")
            steps.append((lab, int(rest.split("]", 1)[0])))
        path = [lts.initial] + [j for _, j in steps]
        on_path = set(path)
        moves = {
            (i, label_text(lab), j) for i, lab, j in lts.transitions if i in on_path
        }
        if any((i, lab, j) not in moves for i, (lab, j) in zip(path, steps)):
            return ["witness takes a move the LTS does not have"], True
        if path[-1] != hit or not _role_somewhere(lts.states[hit], helper):
            return ["witness does not end at a state with a helper"], True
        return [], True

    def _nobody(self, lts, span, h):
        """Known answer: never reached; conclusive only on an untruncated
        space."""
        from abcwb.explorer import env_has, reachable_matching
        from abcwb.syntax import Name

        nobody = Name("nobody")
        with span("explorer.reach"):
            hit = reachable_matching(lts, lambda s: env_has(s, "role", nobody))
        reasons = "; ".join(lts.reasons)
        h.update(f"nobody: {hit} {lts.truncated} {reasons}".encode())
        return [] if hit is None else [f"nobody reached at state {hit}"], not lts.truncated

    def _render(self, lts, span, h):
        from abcwb.explorer import lts_to_text

        with span("explorer.render"):
            text = lts_to_text(lts)
        h.update(text.encode())
        lines = text.split("\n")
        ok = (
            lines[0] == f"seed: {self.seed}"
            and lines[1] == f"states: {len(lts.states)}"
            and len(lines) == 4 + len(lts.states) + len(lts.transitions)
        )
        return [] if ok else ["render does not list the seed, every state and every move"], True


class Swarm(Explore):
    """The robotics definitions with a generated system: two robots and a
    replicated pool of explorers (see ``gen.swarm_system``)."""

    name = "swarm"

    def source(self) -> str:
        from gen import swarm_system

        defs = _read("corpus", "robotics.abc").split("\nsystem:", 1)[0]
        return defs + "\n" + swarm_system(self.seed)


def _reversed_par(sys_):
    from abcwb.syntax import SysPar

    if isinstance(sys_, SysPar):
        return SysPar(_reversed_par(sys_.right), _reversed_par(sys_.left))
    return sys_


class Bisim:
    """channels vs pubsub (not bisimilar) and pubsub vs itself with its
    `||` operands reversed (bisimilar), each strongly and weakly."""

    name = "bisim"

    def __init__(self, seed: int):
        self.seed = seed

    def load(self) -> None:
        self.texts = [_read("corpus", "channels.abc"), _read("corpus", "pubsub.abc")]

    def setup(self, span) -> None:
        from abcwb.attributes import Universe
        from abcwb.parser import parse_program

        with span("parser.parse"):
            channels, pubsub = (parse_program(t) for t in self.texts)
        swapped = _reversed_par(pubsub.main)
        with span("attributes.universe"):
            u_cp = Universe.for_systems([channels.main, pubsub.main])
            u_pp = Universe.for_systems([pubsub.main, swapped])
        cp_defs = {**channels.defs, **pubsub.defs}
        self.pairs = [
            ("channels~pubsub", channels.main, pubsub.main, cp_defs, u_cp, "different"),
            ("pubsub~swapped", pubsub.main, swapped, pubsub.defs, u_pp, "equivalent"),
        ]

    def round(self, span, tally: Tally, counts, h) -> None:
        for label, left, right, defs, universe, expect in self.pairs:
            for weak in (False, True):
                kind = "weak" if weak else "strong"
                tally.job(
                    f"{label} {kind}",
                    lambda: self._bisim(left, right, defs, universe, weak, expect, span, h),
                )

    def _bisim(self, left, right, defs, universe, weak, expect, span, h):
        from abcwb.equivalence import bisimilar

        with span("equivalence.bisimilar"):
            res = bisimilar(
                left, right, defs, universe, weak=weak, repl_bound=BISIM_REPL_BOUND,
                max_states=BISIM_MAX_STATES, seed=self.seed,
            )
            kind = "weakly" if weak else "strongly"
            report = [f"# seed {self.seed}"]
            if res.equivalent:
                verdict = "inconclusive" if res.truncated else "equivalent"
                report.append(f"{kind} bisimilar ({verdict})")
            else:
                verdict = "different"
                report += [f"not {kind} bisimilar", json.dumps(res.witness, indent=2)]
        h.update("\n".join(report).encode())
        if verdict == "different" and not res.witness:
            return ["not bisimilar without a witness"], True
        failures = [] if verdict in (expect, "inconclusive") else [f"{verdict}, expected {expect}"]
        return failures, verdict != "inconclusive"


class Encoding:
    """The 22 `corpus/bpi` terms, the pinned term and a generated family
    (see ``gen.encoding_family``), each checked by `check-encoding`."""

    name = "encoding"

    def __init__(self, seed: int):
        self.seed = seed

    def load(self) -> None:
        from gen import PINNED_DEFECT, PINNED_TERM, encoding_family

        folder = os.path.join(CORPUS, "bpi")
        files = sorted(f for f in os.listdir(folder) if f.endswith(".bpi"))
        self.sources = [(f, _read("corpus", "bpi", f), None) for f in files]
        self.sources.append(("pinned", PINNED_TERM, PINNED_DEFECT))
        self.sources += encoding_family(self.seed)

    def setup(self, span) -> None:
        from abcwb.attributes import Universe
        from abcwb.bpi import encode_program, parse_bpi

        self.terms = []
        for label, text, defect in self.sources:
            with span("parser.parse"):
                term = parse_bpi(text)
            prog = encode_program(term)
            with span("attributes.universe"):
                Universe.for_program(prog)
            self.terms.append((label, term, defect))

    def round(self, span, tally: Tally, counts, h) -> None:
        for label, term, defect in self.terms:
            tally.job(label, lambda: self._check(term, span, counts, h), defect)

    def _check(self, term, span, counts, h):
        from abcwb.bpi import (
            check_barb_correspondence,
            check_correspondence,
            check_divergence_correspondence,
            check_name_invariance,
        )

        with span("bpi.check_correspondence"):
            res = check_correspondence(term, depth=ENCODING_DEPTH)
        counts["bpi.pairs"] += res.checked_pairs
        with span("bpi.side_checks"):
            barbs_ok = check_barb_correspondence(term)
            div_ok = check_divergence_correspondence(term)
            inv_ok = check_name_invariance(term)
        report = [
            f"step bijection: {'ok' if res.ok else 'FAIL'} "
            f"({res.checked_pairs} pairs, truncated: {res.truncated})",
            *(f"  {f}" for f in res.failures[:10]),
            f"barb correspondence: {'ok' if barbs_ok else 'FAIL'}",
            f"divergence correspondence: {'ok' if div_ok else 'FAIL'}",
            f"renaming invariance: {'ok' if inv_ok else 'FAIL'}",
        ]
        h.update("\n".join(report).encode())
        failures = [f"step bijection: {res.failures[0]}"] if not res.ok else []
        failures += [
            f"{check}: FAIL" for check, ok in (
                ("barb correspondence", barbs_ok),
                ("divergence correspondence", div_ok),
                ("renaming invariance", inv_ok),
            ) if not ok
        ]
        # the CLI's exit 2: every check passed, but only up to the depth bound
        return failures, bool(failures) or not res.truncated


WORKLOADS = {w.name: w for w in (Explore, Swarm, Bisim, Encoding)}


# ---------------------------------------------------------------------------
# Per-layer metrics of the traced run.  Self times and span totals are
# seconds per round, medians over the traced rounds; counts are those of
# the first traced round.  Units are the ones BENCHMARK.json gives.

def _field(span_name, key):
    return lambda spans, counts: spans.get(span_name, {}).get(key, 0)


def _count(key):
    return lambda spans, counts: counts.get(key, 0)


def _ratio(num, den):
    def f(spans, counts):
        d = den(spans, counts)
        return num(spans, counts) / d if d else 0.0
    return f


def _revisits(spans, counts):
    # every transition into a new state adds one state; the rest revisit
    t = counts.get("explorer.transitions", 0)
    new = counts.get("explorer.states", 0) - counts.get("explorer.builds", 0)
    return (t - new) / t if t else 0.0


LAYER_TIMES = [
    (f"{span}.self_s", _field(span, "self_s")) for span in (
        "attributes.is_ff", "attributes.fingerprint", "syntax.canonicalize",
        "syntax.pretty_system", "syntax.alpha_equal", "component.output_steps",
        "component.deliver", "system.system_steps", "system.sys_deliver",
        "explorer.canon_label", "explorer.state_rng", "equivalence.explore_pair",
        "equivalence.refine", "equivalence.weak_closure", "bpi.check_correspondence",
        "bpi.bpi_steps", "bpi.encode",
    )
] + [
    ("explorer.build_lts_s", _field("explorer.build_lts", "total_s")),
    ("explorer.states_per_s",
     _ratio(_count("explorer.states"), _field("explorer.build_lts", "total_s"))),
    ("explorer.render_s", _field("explorer.render", "total_s")),
    ("equivalence.witness_s", _field("equivalence.build_witness", "total_s")),
    ("bpi.pairs_per_s",
     _ratio(_count("bpi.pairs"), _field("bpi.check_correspondence", "total_s"))),
    ("bpi.side_checks_s", _field("bpi.side_checks", "total_s")),
]

LAYER_COUNTS = [
    (f"{span}.{key}", _field(span, key)) for span, key in (
        ("attributes.is_ff", "calls"),
        ("attributes.fingerprint", "calls"),
        ("attributes.fingerprint", "distinct_ratio"),
        ("syntax.canonicalize", "calls"),
        ("syntax.canonicalize", "distinct_ratio"),
        ("system.system_steps", "calls"),
        ("system.sys_deliver", "calls"),
    )
] + [
    (key, _count(key)) for key in (
        "explorer.states", "explorer.transitions", "equivalence.joint_states",
        "equivalence.edges", "equivalence.refine.rounds", "bpi.pairs",
    )
] + [("explorer.revisit_ratio", _revisits)]


def layer_metrics(traced_rounds, setup_spans, traced_s, untraced_s) -> dict:
    metrics = {
        name: statistics.median(_field(span, "total_s")(s, None) for s in setup_spans)
        for name, span in (("parser.parse_s", "parser.parse"),
                           ("attributes.universe_s", "attributes.universe"))
    }
    for name, f in LAYER_TIMES:
        metrics[name] = statistics.median(f(spans, counts) for spans, counts in traced_rounds)
    spans, counts = traced_rounds[0]
    for name, f in LAYER_COUNTS:
        metrics[name] = f(spans, counts)
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    sys.path.insert(0, SRC)
    # import every layer now, so that no set-up or round pays for it
    for module in ("parser", "attributes", "explorer", "equivalence", "bpi"):
        importlib.import_module(f"abcwb.{module}")

    work = WORKLOADS[args.workload](args.seed)
    work.load()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    setup_s, setup_spans = [], []

    def set_up(seconds: float) -> None:
        begin = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            work.setup(tracer.span if tracer else _nospan)
            setup_s.append(time.perf_counter() - t0)
            if tracer:
                setup_spans.append(tracer.take()[0])
            if time.perf_counter() - begin >= seconds:
                return

    set_up(SETUP_FIRST)
    paused = 0.0  # seconds spent in set-ups between jobs
    last = time.perf_counter()

    def between() -> None:
        nonlocal paused, last
        t0 = time.perf_counter()
        set_up(SETUP_SHARE * (t0 - last))
        last = time.perf_counter()
        paused += last - t0

    tally = Tally(None if tracer else between)
    traced_rounds, traced_s, untraced_s, digests = [], [], [], set()
    # untraced run: every round untraced; traced run: traced
    # and untraced rounds alternate, so their difference is the overhead
    modes = (True, False) if tracer else (False,)
    start = time.perf_counter()
    while True:
        for traced in modes:
            if tracer and traced:
                tracer.install()
            elif tracer:
                tracer.uninstall()
            counts = tracer.counts if traced else defaultdict(int)
            h = hashlib.sha256()
            gc.collect()
            t0, paused0 = time.perf_counter(), paused
            work.round(tracer.span if traced else _nospan, tally, counts, h)
            (traced_s if traced else untraced_s).append(
                time.perf_counter() - t0 - (paused - paused0)
            )
            digests.add(h.hexdigest())
            if traced:
                traced_rounds.append(tracer.take())
        # another pass if it should end nearer the deadline than stopping
        # now does, so that runs of long rounds also last about --seconds
        passes = traced_s if tracer else untraced_s
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) / 2 > args.seconds:
            break
    if tracer:
        tracer.uninstall()

    if len(digests) != 1:
        tally.unexplained.append("rounds rendered different reports")
    if tracer and any(
        {n: f(*r) for n, f in LAYER_COUNTS} != {n: f(*traced_rounds[0]) for n, f in LAYER_COUNTS}
        for r in traced_rounds[1:]
    ):
        tally.unexplained.append("per-layer counts differ between traced rounds")

    for name, why in sorted(tally.failures.items()):
        print(f"# failed job {name}: {why}")
    print(f"# report digest {args.workload} seed {args.seed}: {sorted(digests)[0]}")
    print(f"# jobs attempted {tally.attempted}, failed {tally.failed}, decided {tally.decided}, "
          f"failed_share {tally.failed / tally.attempted}")
    rounds = traced_s if tracer else untraced_s
    print(f"# rounds {len(rounds)}, round seconds {[round(t, 4) for t in rounds]}")
    print(f"# set-ups {len(setup_s)}, seconds median {statistics.median(setup_s)}, "
          f"max {max(setup_s)}")

    if tracer:
        values = layer_metrics(traced_rounds, setup_spans, traced_s, untraced_s)
    else:
        values = {
            "setup_s": min(setup_s),
            "verdict_s": statistics.median(untraced_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "correct_share": 1 - tally.failed / tally.attempted,
            "decided_share": tally.decided / tally.attempted,
        }
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": not tally.unexplained,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
