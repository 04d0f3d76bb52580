#!/usr/bin/env python3
"""Self-test of the repository benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

It runs a short version of every workload (--quick: one lap of at most 24
requests) and checks that

  * every end-to-end metric of BENCHMARK.json is emitted untraced, and
    every per-layer metric traced, each finite and with its unit;
  * the default-seed runs are correct and fail nothing;
  * a deliberately corrupted reference value makes a request fail;
  * the same seed gives identical input fingerprints, and another seed
    changes the fuzz inputs.

Exits 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["corpus", "fuzz", "session"]


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)] + list(extra)
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def check(ok, message):
        print(("ok   " if ok else "FAIL ") + message, flush=True)
        if not ok:
            problems.append(message)

    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, 0, trace, "--quick")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace={trace}: correct, nothing failed")
            metrics = result["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"])
                check(got is not None and isinstance(got["value"], (int, float))
                      and math.isfinite(got["value"]) and got["unit"] == m["unit"],
                      f"{workload} trace={trace}: {m['name']} emitted, finite, in {m['unit']}")
            extra = sorted(set(metrics) - {m["name"] for m in spec[key]})
            check(not extra, f"{workload} trace={trace}: no unlisted metrics {extra}")

    corrupted = run("corpus", 0, 0, "--quick", "--corrupt-reference")
    check(corrupted["failed"] > 0 and corrupted["metrics"]["ok_frac"]["value"] < 1
          and not corrupted["correct"],
          "corpus: a corrupted reference value fails its request")

    def fingerprints(workload, seed):
        return run(workload, seed, 0, "--fingerprints")["fingerprints"]

    for workload in WORKLOADS:
        check(fingerprints(workload, 7) == fingerprints(workload, 7),
              f"{workload}: same seed, same input fingerprints")
    check(fingerprints("fuzz", 7) != fingerprints("fuzz", 8),
          "fuzz: another seed changes the inputs")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
