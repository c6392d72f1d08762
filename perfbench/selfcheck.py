"""Determinism self-check for the benchmark.

Runs the traced benchmark three times per workload, under
PYTHONHASHSEED 1, 1 and 2, and demands that the per-layer counts and
ratios and the digest of the rendered reports are identical across the
runs.  Python randomises ``str`` hashing per process, so a count or an
output that depends on set or dict order shows up here.

    python3 perfbench/selfcheck.py                  # all workloads, seed 0
    python3 perfbench/selfcheck.py --workload explore --seed 7

Exits 0 when every run agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
HASH_SEEDS = (1, 1, 2)


def traced_run(workload: str, seed: int, hash_seed: int) -> tuple[str, dict]:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", "1"]
    lines = subprocess.run(
        cmd, env=env, capture_output=True, text=True, check=True, timeout=600
    ).stdout.splitlines()
    digest = next(line for line in lines if line.startswith("# report digest"))
    result = json.loads(lines[-1])
    counts = {
        name: m["value"] for name, m in result["metrics"].items()
        if m["unit"] in ("count", "ratio")
    }
    counts["correct"] = result["correct"]
    return digest, counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark determinism self-check")
    ap.add_argument("--workload", action="append",
                    choices=("explore", "swarm", "bisim", "encoding"))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    ok = True
    for workload in args.workload or ("explore", "swarm", "bisim", "encoding"):
        runs = [traced_run(workload, args.seed, h) for h in HASH_SEEDS]
        digest, counts = runs[0]
        for h, (d, c) in zip(HASH_SEEDS[1:], runs[1:]):
            diff = sorted(k for k in counts.keys() | c.keys() if counts.get(k) != c.get(k))
            if d != digest or diff:
                ok = False
                print(f"FAIL {workload}: PYTHONHASHSEED={h} differs "
                      f"({'digest, ' if d != digest else ''}{', '.join(diff)})")
        if not all(c["correct"] for _, c in runs):
            ok = False
            print(f"FAIL {workload}: a run reported correct: false")
        elif all(c == counts and d == digest for d, c in runs):
            print(f"PASS {workload}: {len(counts) - 1} counts and the report digest "
                  f"agree across PYTHONHASHSEED {', '.join(map(str, HASH_SEEDS))}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
