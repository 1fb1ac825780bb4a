#!/usr/bin/env python3
"""Closed-loop benchmark of core::System: EvE, ADAM and the
environments, generation after generation (workloads and metrics in
BENCHMARK.json).

    python3 perfbench/run.py --workload airraid_wide --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/ (the genesys library and the loop_bench driver) in
Release into $CARGO_TARGET_DIR, or .bench_build when that is unset,
then runs loop_bench from the repository root. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones; the last line of
stdout is one JSON object {correct, attempted, failed, metrics}.
Result files and Chrome traces go to .bench_results/.

Exit codes: those of loop_bench (0 ok, 2 a GENESYS_* override is set,
3 correctness gate), or 1 when the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("airraid_wide", "bipedal_e4_hw_ckpt")
RESULTS_DIR = ".bench_results"


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                        or ".bench_build")


def build():
    """Configure (once) and build; returns the loop_bench path."""
    bdir = build_dir()
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--parallel",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(bdir, "loop_bench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library sources, for checkouts without git."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths += [os.path.join(base, f) for f in sorted(files)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--gens", type=int, default=0,
                    help="generations per repetition (0: the workload's)")
    ap.add_argument("--expect-hash", default="",
                    help="fail the correctness gate unless the "
                         "per-generation record hashes to this")
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--gens", str(args.gens), "--out", RESULTS_DIR,
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.expect_hash:
        cmd += ["--expect-hash", args.expect_hash]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
