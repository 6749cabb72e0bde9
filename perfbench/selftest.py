#!/usr/bin/env python3
"""The benchmark's self-test.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload in BENCHMARK.json:

- a one-second run with --trace 0 and one with --trace 1 must be
  correct and emit every end-to-end, respectively per-layer, metric
  named in BENCHMARK.json, each as a number with its unit;
- a run whose oracle is given one falsified expected outcome
  (--corrupt-oracle) must report failed > 0 and correct = false;
- the same seed must reproduce the op stream exactly, and another seed
  must change it.

Prints one line per check and exits non-zero if any fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]

failures = 0


def check(label, ok, detail=""):
    global failures
    print("  %-60s %s%s" % (label, "ok" if ok else "FAIL", "" if ok else " (" + detail + ")"))
    if not ok:
        failures += 1


def run(*args):
    done = subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True, text=True, timeout=900)
    return done.returncode, done.stdout.splitlines(), done.stderr


def result(*args):
    code, lines, err = run(*args)
    if code != 0 or not lines:
        return None, err[-400:]
    return json.loads(lines[-1]), ""


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sets = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for workload in [w["name"] for w in bench["workloads"]]:
        print(workload)
        for trace, wanted in sets.items():
            r, err = result("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace))
            check("trace %d run completes" % trace, r is not None, err)
            if r is None:
                continue
            check("trace %d run is correct" % trace, r["correct"] and r["failed"] == 0, json.dumps(r)[:200])
            missing = [
                m["name"]
                for m in wanted
                if not isinstance(r["metrics"].get(m["name"], {}).get("value"), (int, float))
                or r["metrics"][m["name"]].get("unit") != m["unit"]
            ]
            check("trace %d run emits every named metric" % trace, not missing, ", ".join(missing))
        r, err = result("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0", "--corrupt-oracle")
        check(
            "a falsified expectation raises failed above 0",
            r is not None and r["failed"] > 0 and not r["correct"],
            err or json.dumps(r)[:200],
        )
        dumps = [run("--workload", workload, "--seed", str(seed), "--dump-ops", "500")[1] for seed in (1, 1, 2)]
        check("the same seed reproduces the op stream", dumps[0] == dumps[1] and len(dumps[0]) >= 500)
        check("another seed changes the op stream", dumps[0] != dumps[2])
    print("self-test: %s" % ("all checks passed" if failures == 0 else "%d check(s) FAILED" % failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
