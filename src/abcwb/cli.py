"""Command line interface.

Exit codes: 0 success / property holds, 1 negative verdict,
2 inconclusive (bounds were hit before an answer), 3 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys

from .attributes import Universe, UniverseTooLarge
from .bpi import (
    check_barb_correspondence,
    check_correspondence,
    check_divergence_correspondence,
    check_name_invariance,
    encode_program,
    parse_bpi,
)
from .equivalence import barbs, bisimilar
from .explorer import (
    build_lts,
    env_has,
    label_text,
    lts_to_json,
    lts_to_text,
    random_trace,
    reachable_matching,
    witness_path as _witness_path,
)
from .parser import ParseError, _Parser, parse_program
from .syntax import Name, canonicalize, pretty_proc, pretty_system
from .system import set_fuel, system_steps


class Refusal(Exception):
    """A run the command line refuses; ``main`` prints ``error: <message>``
    on stderr and exits 3."""


def _load(path: str, parse=parse_program):
    """``parse`` applied to the text of the file at ``path``; a missing
    file, one that does not decode, or text ``parse`` rejects is refused."""
    try:
        with open(path) as f:
            return parse(f.read())
    except FileNotFoundError:
        raise Refusal(f"no such file: {path}") from None
    except (ParseError, ValueError) as e:
        raise Refusal(f"{path}: {e}") from None


def _encoded(text: str):
    """A broadcast-pi term and its translation; a term outside the
    translatable fragment raises ``ValueError``."""
    term = parse_bpi(text)
    return term, encode_program(term)


def _print_defs(defs) -> None:
    for name, (params, body) in sorted(defs.items()):
        print(f"def {name}({', '.join(params)}) = {pretty_proc(body)}")


def _parse_value(text: str):
    """The value a ``reach`` query names, read as a value of ``.abc``
    text, but a bare identifier reads as a name; None for text that is
    no value."""
    try:
        p = _Parser(text, set())
        t = p.peek()
        if t.kind == "ident" and t.text not in ("tt", "ff") and p.peek(1).kind == "eof":
            return Name(t.text)
        value = p.value()
        p.expect("eof")
        return value
    except (ParseError, ValueError):
        return None


def natural(text: str) -> int:
    """A whole number of at least zero, such as a replication bound."""
    bound = int(text)
    if bound < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {bound}")
    return bound


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="abcwb",
        description="workbench for an attribute-based broadcast calculus",
    )
    ap.add_argument("--seed", type=int, default=0,
                    help="run seed: echoed in reports; trace draws its path from it")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_parse = sub.add_parser("parse", help="parse a file and print the system")
    p_parse.add_argument("file")

    p_step = sub.add_parser("step", help="show the immediate steps of a system")
    p_step.add_argument("file")

    p_exp = sub.add_parser("explore", help="build the bounded transition graph")
    p_exp.add_argument("file")
    p_exp.add_argument("--max-states", type=natural, default=10_000)
    p_exp.add_argument("--max-depth", type=natural, default=None)

    p_trace = sub.add_parser("trace", help="one random walk through a system")
    p_trace.add_argument("file")
    p_trace.add_argument("--steps", type=natural, default=20)

    p_barbs = sub.add_parser("barbs", help="immediate observables of a system")
    p_barbs.add_argument("file")

    p_bisim = sub.add_parser("bisim", help="compare two files for bisimilarity")
    p_bisim.add_argument("left")
    p_bisim.add_argument("right")
    p_bisim.add_argument("--weak", action="store_true")
    p_bisim.add_argument("--max-states", type=natural, default=2000)

    p_reach = sub.add_parser(
        "reach", help="search explored states for attr=value in some component"
    )
    p_reach.add_argument("file")
    p_reach.add_argument("query", help="attr=value, e.g. role='rescuer' or count=3")
    p_reach.add_argument("--max-states", type=natural, default=10_000)
    p_reach.add_argument("--max-depth", type=natural, default=None)

    # the commands that unfold replication share one budget; each usage
    # line lists it after the command's other bounds, before --format
    for p in (p_step, p_exp, p_trace, p_bisim, p_reach):
        p.add_argument("--repl-bound", type=natural, default=3)
    p_exp.add_argument("--format", choices=("text", "json"), default="text")

    p_enc = sub.add_parser("encode", help="translate a broadcast pi term")
    p_enc.add_argument("file")

    p_chk = sub.add_parser(
        "check-encoding", help="verify the translation of a broadcast pi term"
    )
    p_chk.add_argument("file")
    p_chk.add_argument("--depth", type=natural, default=6)

    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse uses 2 for usage errors; 2 means "inconclusive" here
        raise SystemExit(3 if e.code else 0)

    try:
        code = _dispatch(args)
        _sys.stdout.flush()
        return code
    except Refusal as e:
        print(f"error: {e}", file=_sys.stderr)
        return 3
    except UniverseTooLarge as e:
        print(f"error: resource bound exceeded: {e}", file=_sys.stderr)
        return 2
    except RecursionError:
        # parsing, stepping and printing recurse along the term
        print("error: resource bound exceeded: the term nests too deeply", file=_sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left early (``abcwb explore ... | head``); point
        # stdout at devnull so the final flush at exit cannot fail again,
        # as the signal module's documentation advises
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, _sys.stdout.fileno())
        return 0


def _dispatch(args) -> int:
    if args.cmd == "parse":
        prog = _load(args.file)
        _print_defs(prog.defs)
        print(pretty_system(prog.main))
        return 0

    if args.cmd == "step":
        prog = _load(args.file)
        universe = Universe.for_program(prog)
        init = canonicalize(set_fuel(prog.main, args.repl_bound))
        print(f"# seed {args.seed}")
        for lab, succ in system_steps(init, prog.defs, universe, {}):
            print(f"{label_text(lab)}\n    -> {pretty_system(succ)}")
        return 0

    if args.cmd in ("explore", "reach"):
        prog = _load(args.file)
        if args.cmd == "reach":
            attr, _, val = (part.strip() for part in args.query.partition("="))
            if not attr or not val:
                raise Refusal("query must look like attr=value")
            value = _parse_value(val)
            if value is None:
                raise Refusal(f"query must look like attr=value; {val} is no value")
        lts = build_lts(
            prog.main,
            prog.defs,
            Universe.for_program(prog),
            seed=args.seed,
            max_states=args.max_states,
            max_depth=args.max_depth,
            repl_bound=args.repl_bound,
        )
        if args.cmd == "explore":
            print(lts_to_json(lts) if args.format == "json" else lts_to_text(lts))
            return 0
        print(f"# seed {args.seed}")
        hit = reachable_matching(lts, lambda s: env_has(s, attr, value))
        if hit is not None:
            print(f"reached at state {hit}: {pretty_system(lts.states[hit])}")
            print("witness trace:")
            for line in _witness_path(lts, hit):
                print(f"  {line}")
            return 0
        if lts.truncated:
            print(f"not reached within bounds ({'; '.join(lts.reasons)})")
            return 2
        print("not reachable")
        return 1

    if args.cmd == "trace":
        prog = _load(args.file)
        universe = Universe.for_program(prog)
        print(f"# seed {args.seed}")
        for lab, state in random_trace(
            prog.main,
            prog.defs,
            universe,
            seed=args.seed,
            steps=args.steps,
            repl_bound=args.repl_bound,
        ):
            print(f"{lab}\n    -> {pretty_system(state)}")
        return 0

    if args.cmd == "barbs":
        prog = _load(args.file)
        universe = Universe.for_program(prog)
        for fp, arity in sorted(barbs(prog.main, prog.defs, universe)):
            print(f"barb: arity {arity}, predicate key {fp}")
        return 0

    if args.cmd == "bisim":
        left = _load(args.left)
        right = _load(args.right)
        clashes = sorted(n for n in left.defs.keys() & right.defs.keys()
                         if left.defs[n] != right.defs[n])
        if clashes:
            raise Refusal(f"{args.left} and {args.right} define "
                          f"{', '.join(clashes)} differently")
        defs = {**left.defs, **right.defs}
        universe = Universe.for_systems([left.main, right.main], defs)
        res = bisimilar(
            left.main,
            right.main,
            defs,
            universe,
            weak=args.weak,
            repl_bound=args.repl_bound,
            max_states=args.max_states,
            seed=args.seed,
        )
        kind = "weakly" if args.weak else "strongly"
        print(f"# seed {args.seed}")
        if res.truncated:
            # a state cut off by a bound lacks moves, so no verdict is sound
            verdict = f"{kind} bisimilar" if res.equivalent else f"not {kind} bisimilar"
            print(f"{verdict} on the truncated space "
                  f"({'; '.join(res.reasons)}); inconclusive")
            return 2
        if res.equivalent:
            print(f"{kind} bisimilar")
            return 0
        print(f"not {kind} bisimilar")
        print(json.dumps(res.witness, indent=2))
        return 1

    if args.cmd in ("encode", "check-encoding"):
        term, prog = _load(args.file, _encoded)
        if args.cmd == "encode":
            _print_defs(prog.defs)
            print("system:")
            print(f"  {pretty_system(prog.main)}")
            return 0
        res = check_correspondence(term, depth=args.depth)
        barbs_ok = check_barb_correspondence(term)
        div_ok = check_divergence_correspondence(term)
        inv_ok = check_name_invariance(term)
        print(f"step bijection: {'ok' if res.ok else 'FAIL'} "
              f"({res.checked_pairs} pairs, truncated: {res.truncated})")
        for f_ in res.failures[:10]:
            print(f"  {f_}")
        print(f"barb correspondence: {'ok' if barbs_ok else 'FAIL'}")
        print(f"divergence correspondence: {'ok' if div_ok else 'FAIL'}")
        print(f"renaming invariance: {'ok' if inv_ok else 'FAIL'}")
        if not (res.ok and barbs_ok and div_ok and inv_ok):
            return 1
        return 2 if res.truncated else 0

    raise AssertionError(args.cmd)


if __name__ == "__main__":
    raise SystemExit(main())
