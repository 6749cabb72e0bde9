#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/bench.exe with dune
(incremental after the first run), runs it, and relays its output: an
"info" line, a "host" line, then the result as the last line, a JSON
object with the keys correct, attempted, failed and metrics.  Exits
non-zero, printing no result, when the build or the run fails.

--corrupt-oracle and --dump-ops K are passed through for the self-test
(perfbench/selftest.py).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    # No shared dune cache: the build writes only under the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(done.stdout.decode(errors="replace"))
        fail("build failed")


def commit():
    """The git commit, or a digest of the sources when the checkout is
    not a repository."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=10
        )
        if head.returncode == 0:
            return head.stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-oracle", action="store_true")
    parser.add_argument("--dump-ops", type=int, default=0)
    args = parser.parse_args()

    build()
    command = [EXE, "--workload", args.workload, "--seed", str(args.seed)]
    if args.dump_ops:
        command += ["--dump-ops", str(args.dump_ops)]
    else:
        command += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt_oracle:
        command.append("--corrupt-oracle")
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    sys.stderr.write(done.stderr.decode(errors="replace"))
    if done.returncode != 0:
        fail("run exited with %d" % done.returncode)
    lines = done.stdout.decode().splitlines()
    if args.dump_ops:
        print("\n".join(lines))
        return
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line")
    if set(result) != RESULT_KEYS:
        fail("malformed result line")
    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "seed": args.seed,
        "seconds": args.seconds,
    }
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"host": host}))
    print(lines[-1])


if __name__ == "__main__":
    main()
