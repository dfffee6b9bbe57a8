#!/usr/bin/env python3
"""Build and run the nscc benchmark.

    python3 perfbench/run.py --workload compile|execute --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ (which compiles the repository's src/) into
.bench_build/perfbench under the repository root, runs the benchmark's
self-tests after every rebuild, then runs one workload.  The last line of
standard output is the run's JSON result; a run that cannot complete exits
nonzero without printing one.  Traced runs write a Chrome trace to
.bench_build/trace-<workload>-seed<N>.json.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BENCH = os.path.join(BUILD, "perfbench")
SELFTEST = os.path.join(BUILD, "perfbench_selftest")
STAMP = os.path.join(BUILD, "selftest.passed")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def call(cmd, timeout):
    """Runs cmd with its output on stderr; True on exit status 0."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        log("timed out:", " ".join(cmd))
        return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "support", "error.hpp")):
        log("perfbench: no nscc sources under", os.path.join(ROOT, "src"))
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not call(cmd, 300):
            return False
    return call(["cmake", "--build", BUILD, "-j", "4"], 800)


def selftest(force):
    fresh = (os.path.isfile(STAMP) and
             os.path.getmtime(STAMP) >= os.path.getmtime(SELFTEST) and
             os.path.getmtime(STAMP) >= os.path.getmtime(BENCH))
    if fresh and not force:
        return True
    if os.path.exists(STAMP):
        os.remove(STAMP)
    if not call([SELFTEST, "--root", ROOT], 300):
        log("perfbench: self-tests failed")
        return False
    with open(STAMP, "w") as f:
        f.write("ok\n")
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["compile", "execute"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run only the self-tests")
    args = ap.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None or
                              args.seconds is None):
        ap.error("--workload, --seed and --seconds are required")

    if not build() or not selftest(args.selftest):
        return 1
    if args.selftest:
        return 0

    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--trace-out",
           os.path.join(ROOT, ".bench_build",
                        "trace-%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out after", RUN_TIMEOUT_S, "s")
        return 1
    out = proc.stdout.decode("utf-8", "replace")
    if proc.returncode != 0:
        sys.stderr.write(out)
        log("perfbench: run failed with exit status", proc.returncode)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
