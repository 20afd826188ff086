#!/usr/bin/env python3
"""Builds and runs the navigation benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload pan_zoom --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build), table
files and the flight log of a run to a scratch directory next to it that is
removed afterwards. The last line of standard output is the result JSON;
build output goes to standard error.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pan_zoom", "dashboard_serve", "ingest_live", "out_of_core")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: geocol sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, target)


def source_id():
    """Content hash of the sources the benchmark builds (and the git commit
    when there is one), so results compare like with like."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        tree = os.walk(os.path.join(ROOT, top))
        for dirpath, dirnames, filenames in sorted(tree):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    ident = "tree-sha256:" + h.hexdigest()[:16]
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if commit.returncode == 0:
            ident = "git:" + commit.stdout.strip() + " " + ident
    except (OSError, subprocess.SubprocessError):
        pass
    return ident


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.self_test:
        return subprocess.run([build("navbench_test")]).returncode
    if args.workload is None:
        ap.error("--workload is required")

    binary = build("navbench")
    work = os.path.join(os.path.dirname(build_dir()),
                        "work-%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--source", source_id()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
