#!/usr/bin/env python3
"""Build simq from source and run one benchmark workload.

Run from the root of a simq checkout:

    python3 perfbench/run.py --workload serve-mix --seed 61956 --seconds 10 --trace 0

Workloads: serve-mix, batch-lookup, oneshot. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer with --trace 1).
Build output and diagnostics go to standard error. Everything the run
writes stays inside the checkout: dune's _build/ and .perfbench/.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("serve-mix", "batch-lookup", "oneshot")
MAIN = os.path.join("_build", "default", "perfbench", "main.exe")
SIMQ = os.path.join("_build", "default", "bin", "simq.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def capture(cmd, env):
    try:
        return subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def run_group(cmd, env, timeout):
    """Runs cmd in its own process group; on timeout the whole group,
    the processes it started included, is killed and reaped."""
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run me from the root of a simq checkout (no %s here)" % need)

    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        built = subprocess.run(
            ["dune", "build", "--root", ".", "perfbench/main.exe", "bin/simq.exe"],
            env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.SubprocessError) as e:
        fail("build failed: %s" % e)
    if built.returncode != 0:
        fail("build failed (dune exit %d)" % built.returncode)

    flambda = capture(["ocamlfind", "ocamlopt", "-config-var", "flambda"], env) \
        or capture(["ocamlopt", "-config-var", "flambda"], env) or "unknown"
    commit = capture(["git", "rev-parse", "HEAD"], env) if os.path.exists(".git") else ""

    common = ["--workload", args.workload]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]
    if run_group([MAIN, "--generate"] + common, env, 120) != 0:
        fail("input generation failed")
    sys.exit(run_group(
        [MAIN] + common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--simq", SIMQ, "--flambda", flambda,
            "--commit", commit or "unknown (not a git checkout)"],
        env, 175))


if __name__ == "__main__":
    main()
