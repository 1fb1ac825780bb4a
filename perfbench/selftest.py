#!/usr/bin/env python3
"""Self-test of the closed-loop benchmark.

    python3 perfbench/selftest.py

A short run of each workload checks that every metric BENCHMARK.json
names is printed with its unit and a finite value, that the serial
replay took exactly the engine's steps on every genome, and that the
correctness gate trips when the record hash of one seed is checked
against another's. It also checks that the benchmark refuses to run
with a GENESYS_* override set, and that it fails without printing a
result when only the benchmark's own files are present. Exits 0 when
every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402

GENS = 8
failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def bench(workload, seed, trace, expect_hash="", env=None):
    cmd = [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--gens", str(GENS)]
    if expect_hash:
        cmd += ["--expect-hash", expect_hash]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          env=env)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result


def result_file(workload, seed, trace):
    path = os.path.join(run.ROOT, run.RESULTS_DIR,
                        f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path) as f:
        return json.load(f)


def check_metrics(workload, result, declared):
    metrics = result["metrics"] if result else {}
    for m in declared:
        got = metrics.get(m["name"])
        check(got is not None and got["unit"] == m["unit"]
              and isinstance(got["value"], (int, float))
              and math.isfinite(got["value"]),
              f"{workload}: {m['name']} printed in {m['unit']}, finite")
    check(set(metrics) == {m["name"] for m in declared},
          f"{workload}: no metric beyond those declared")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    run.build()

    for w in spec["workloads"]:
        name = w["name"]
        code, result = bench(name, 1, 0)
        check(code == 0 and result is not None and result["correct"]
              and result["failed"] == 0, f"{name}: untraced run passes")
        check_metrics(name, result, spec["end_to_end"])

        code, result = bench(name, 1, 1)
        check(code == 0 and result is not None and result["correct"],
              f"{name}: traced run passes")
        check_metrics(name, result, spec["per_layer"])
        replay = result_file(name, 1, 1)["replay"]
        check(replay["genomes_replayed"] == replay["genomes_submitted"] > 0
              and replay["replay_steps"] == replay["engine_inferences"] > 0,
              f"{name}: replayed steps equal the engine's inferences")

        hash1 = result_file(name, 1, 0)["record_hashes"][0]
        code, result = bench(name, 1, 0, expect_hash=hash1)
        check(code == 0, f"{name}: gate passes on the same seed")
        code, result = bench(name, 2, 0, expect_hash=hash1)
        check(code == 3 and result is not None and not result["correct"],
              f"{name}: gate trips on another seed's hash")

    env = dict(os.environ, GENESYS_NUMERICS="hw")
    code, result = bench(spec["workloads"][0]["name"], 1, 0, env=env)
    check(code == 2 and result is None,
          "refuses to run with GENESYS_NUMERICS set")

    # Only BENCHMARK.json and the benchmark's own files: no sources to
    # build, so no result.
    bare = os.path.join(run.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(run.ROOT, path),
                        os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=bare, capture_output=True, text=True,
        env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"), timeout=180)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          "fails without a result when the sources are absent")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
