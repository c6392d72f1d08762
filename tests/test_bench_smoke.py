"""The benchmark harness still runs against the library.

``perfbench/spans.py`` traces library functions by name, so a renamed or
deleted traced function breaks the traced benchmark without breaking any
other test.  One traced swarm round is quick and touches every
step-generation and predicate layer.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_traced_swarm_round_is_correct():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "swarm", "--seed", "0",
           "--seconds", "0", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["metrics"]["attributes.is_ff.calls"]["value"] > 0
