#!/usr/bin/env python3
"""Build and run one workload of the cosched benchmark.

Run from the root of a cosched checkout:

    python3 perfbench/run.py --workload wire-mixed --seed 1 --seconds 20 --trace 0

Builds perfbench/bench.exe with dune (inside the checkout; the dune
cache is disabled so nothing is written outside it), then runs the
workload in its own process group.  The last line of standard output
is the result: {"correct", "attempted", "failed", "metrics"}.  Records
and Chrome traces land in .bench_out/.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["wire-mixed", "live-1e5", "offline-paper"]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
# Sources that make up the program, hashed when the checkout carries no
# git metadata, so every result still names the code it measured.
SOURCE_ROOTS = ["dune-project", "dune", "lib", "bin", "perfbench"]

# Every run is pinned to one CPU except offline-paper's traced run,
# whose two-worker campaign needs two.  On a 2-vCPU shared host, runs
# that kept both vCPUs busy drew the hypervisor's steal and swung with
# it; wire-mixed's client and daemon hand each request back and forth,
# and on one CPU that hand-off is a local context switch, not a
# cross-CPU wake-up.
def one_cpu(workload, trace):
    return not (workload == "offline-paper" and trace == 1)


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def revision():
    if os.path.exists(".git"):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            )
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for root in SOURCE_ROOTS:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs
        )
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def run_group(argv, timeout, cpus=None, **kw):
    """Run argv in its own process group, on the CPUs cpus (all when
    None); on timeout kill the whole group (a forked daemon included)
    and wait for it."""
    if cpus is not None:
        kw["preexec_fn"] = lambda: os.sched_setaffinity(0, cpus)
    p = subprocess.Popen(argv, start_new_session=True, **kw)
    try:
        rc = p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        rc = None
    finally:
        reap_group(p)
    if rc is None:
        die(f"{' '.join(argv[:3])} ... exceeded {timeout} s", 1)
    return rc


def reap_group(p):
    """Kill whatever is left of p's process group and wait until it is gone."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        if p.poll() is None:
            p.wait()
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for need in ["dune-project", "lib", os.path.join("perfbench", "dune")]:
        if not os.path.exists(need):
            die(f"{need} not found: run from the root of a cosched checkout")
    if args.seconds <= 0:
        die("--seconds must be positive")

    env = dict(os.environ, DUNE_CACHE="disabled")
    rc = run_group(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
        env=env,
    )
    if rc != 0:
        die(f"build failed (exit {rc})", 1)

    rc = run_group(
        [
            EXE,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--commit", revision(),
            "--out", ".bench_out",
            "--digests", os.path.join("perfbench", "digests.txt"),
        ],
        RUN_TIMEOUT_S,
        cpus={max(os.sched_getaffinity(0))} if one_cpu(args.workload, args.trace) else None,
    )
    sys.exit(rc)


if __name__ == "__main__":
    main()
