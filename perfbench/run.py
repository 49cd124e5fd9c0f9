#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first form builds the `perfbench` package (into $CARGO_TARGET_DIR,
default `.bench_build`), runs one workload in a fresh working directory
with a fresh result cache (`FTGCS_CACHE_DIR`) and `FTGCS_WORKERS`
unset, prints every metric by name and unit, and prints one JSON result
as the last line of stdout. It exits non-zero if the build fails, the
run fails or times out, or any output check fails.

`--self-test` runs every workload once at a tiny size, traced and
untraced, and checks that its output checks pass and that it prints
exactly the metric names `BENCHMARK.json` lists.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

WORKLOADS = ["grid_parallel", "torus_global", "mobile_attack", "cell_sweep"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_PREFIX = "perfbench-result: "
LINE_PREFIX = "perfbench: "


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build(root):
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    t = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"[run.py] build failed (exit {proc.returncode})")
    log(f"build ok in {time.monotonic() - t:.1f} s")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def run_workload(root, binary, workload, seed, seconds, trace, size="full"):
    """Runs one workload; returns (exit code, result dict or None, lines)."""
    work_parent = os.path.join(root, ".bench_work")
    os.makedirs(work_parent, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_parent)
    try:
        cwd = os.path.join(work, "cwd")
        cache = os.path.join(work, "cache")
        os.makedirs(cwd)
        os.makedirs(cache)
        env = dict(os.environ, FTGCS_CACHE_DIR=cache)
        env.pop("FTGCS_WORKERS", None)
        cmd = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--size", size]
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, 9)
            proc.communicate()
            log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
            return 124, None, []
        result, lines = None, []
        for line in out.splitlines():
            if line.startswith(RESULT_PREFIX):
                result = json.loads(line[len(RESULT_PREFIX):])
            elif line.startswith(LINE_PREFIX):
                lines.append(line[len(LINE_PREFIX):])
            else:
                # The program's own output (analysis and sweep tables).
                print(line, file=sys.stderr)
        return proc.returncode, result, lines
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_parent)
        except OSError:
            pass


def self_test(root, binary):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    listed = [w["name"] for w in spec["workloads"]]
    assert set(listed) <= set(WORKLOADS), f"BENCHMARK.json names unknown workloads {listed}"
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, lines = run_workload(root, binary, workload, 0, 0.2, trace, "tiny")
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                failures.append(f"{label}: exit {code}, result {result}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{label}: checks failed: {lines}")
            printed = set(result["metrics"])
            if printed != names[trace]:
                failures.append(f"{label}: metric names {sorted(printed ^ names[trace])} "
                                "are not exactly those in BENCHMARK.json")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not m["unit"]:
                    failures.append(f"{label}: bad metric {name}: {m}")
            log(f"self-test {label}: ok ({result['attempted']} operations)")
    if failures:
        for f in failures:
            log(f"SELF-TEST FAILED: {f}")
        return 1
    log("self-test passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    root = os.getcwd()
    binary = build(root)
    if args.self_test:
        return self_test(root, binary)
    if args.workload is None:
        ap.error("--workload is required")
    code, result, lines = run_workload(root, binary, args.workload, args.seed,
                                       args.seconds, args.trace)
    for line in lines:
        print(line)
    if result is None:
        log(f"{args.workload}: no result (exit {code})")
        return code or 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
