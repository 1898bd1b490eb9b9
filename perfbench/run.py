#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload kv_read|kv_write|spmv \
        --seed N --seconds S --trace 0|1

Run from the root of the repository. The first run configures and builds
perfbench/ (which compiles the library from ../src) into the directory
named by CARGO_TARGET_DIR, or .bench_build by default, and every run
executes the self-test of the benchmark's arithmetic first. The last
line of standard output is the run's JSON result; --trace 1 also writes
the span file under <build dir>/traces/. The exit code is non-zero when
the build, the self-test or any correctness check fails.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MAX_SECONDS = 600.0


def run_timeout(seconds):
    """A run measures for `seconds` and spends up to ~15 s more on
    set-up, warm-up, drain and audit; this leaves room for a slow host
    (80 s more at --seconds 30)."""
    return 2 * seconds + 80


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def step(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.stderr.write("perfbench: step failed: %s\n" % " ".join(cmd))
        sys.exit(1)


def build(bdir):
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", bdir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)])
    step([os.path.join(bdir, "perfbench_selftest"), "--gtest_brief=1"])


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def src_digest():
    """SHA-256 over the library and benchmark sources, so a run from a
    checkout without git history still names the code it measured."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["kv_read", "kv_write", "spmv"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not 0 < args.seconds <= MAX_SECONDS:
        ap.error("--seconds must be in (0, %g]" % MAX_SECONDS)

    bdir = build_dir()
    build(bdir)
    out_dir = os.path.join(bdir, "traces")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--git-sha", git_sha(),
           "--src-digest", src_digest()]
    timeout = run_timeout(args.seconds)
    try:
        result = subprocess.run(cmd, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %g s\n" % timeout)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
