"""The benchmark harness still runs against the library.

``perfbench/spans.py`` traces library functions by name, so a renamed or
deleted traced function breaks the traced benchmark without breaking any
other test.  One traced swarm round is quick and touches every
step-generation and predicate layer; one traced bisim round reads the
joint space ``_explore_pair`` returns, which no swarm round builds; one
traced explore round pins the size of the robotics transition graph.
"""

import importlib
import importlib.util
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _traced_round(workload: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    return result["metrics"]


def test_traced_explore_round_is_correct():
    # the amount of work is deterministic: a change to it is a reviewed re-pin
    counts = {k: v["value"] for k, v in _traced_round("explore").items()}
    assert counts["explorer.states"] == 2_750
    assert counts["explorer.transitions"] == 14_100
    # the root and each component successor, not every move target (14,101)
    assert counts["syntax.canonicalize.calls"] == 123


def test_traced_swarm_round_is_correct():
    assert _traced_round("swarm")["attributes.is_ff.calls"]["value"] > 0


def test_traced_bisim_round_is_correct():
    # the amount of work is deterministic: a change to it is a reviewed re-pin
    counts = {k: v["value"] for k, v in _traced_round("bisim").items()}
    assert counts["equivalence.joint_states"] == 1_912
    # explicit moves only: a discarded stimulus is an implicit self-loop
    assert counts["equivalence.edges"] == 4_092
    assert counts["equivalence.refine.rounds"] == 12
    # only states where some component receives a stimulus deliver it
    assert counts["system.sys_deliver.calls"] == 1_284


def test_traced_encoding_round_is_correct():
    # the encoding set-up is the benchmark's one path through parse_bpi
    assert _traced_round("encoding")["bpi.pairs"]["value"] > 0


def test_every_traced_layer_is_wrapped_at_a_call_site():
    # a layer that no other module calls reads 0 in every traced run
    # without failing one
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    mods = {m: importlib.import_module(f"abcwb.{m}") for m in spans.CALLERS}
    originals = {(d, f): getattr(mods[d], f) for d, f, _ in spans.TRACED}
    holders = {
        key: [m for m, mod in mods.items() if getattr(mod, key[1], None) is fn]
        for key, fn in originals.items()
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        unwrapped = [
            key
            for key, fn in originals.items()
            if all(getattr(mods[m], key[1]) is fn for m in holders[key])
        ]
    finally:
        tracer.uninstall()
    assert unwrapped == []
