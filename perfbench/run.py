#!/usr/bin/env python3
"""Runs the LOF benchmark from the root of a source checkout.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Builds the benchmark binary and the `lof` CLI from source (release profile,
offline; into $CARGO_TARGET_DIR, default `.bench_build`), then runs each
requested workload in its own process. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 with --workload runs that workload and reports its end-to-end
metrics under their own names. Without --workload it runs all four and
names each metric `<workload>.<metric>`. --trace 1 is the separate traced
run: it runs the layer-by-layer version of every workload, half of
--seconds each, and reports the per-layer metrics of all four, named
`<workload>.<layer metric>`, whichever --workload was named.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["batch-range", "topn-lattice", "ooc-spill", "serve-open"]
# Each workload process must end within --seconds plus this: input
# generation, set-up, the reference check and the server's drain take
# 10-20 s here.
SLACK_S = 45


def build(bench_dir, target_dir):
    """Builds the benchmark and the `lof` binary; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(bench_dir, "Cargo.toml"),
        "-p", "lof-perfbench", "-p", "lof-cli",
    ]
    # Cargo's output goes to stderr so standard output stays the result.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: building the benchmark failed (cargo exited {done.returncode})")
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "lof")


def run_workload(binary, lof, root, workload, seed, seconds, trace):
    """Runs one workload process; returns its parsed result object. The
    process runs in its own process group, so on timeout the `lof serve`
    it may have started is stopped with it."""
    work_root = os.path.join(root, ".bench_work")
    work = os.path.join(work_root, f"{workload}-{os.getpid()}")
    cmd = [
        binary, workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", "1" if trace else "0",
        "--work", work,
        "--spans", os.path.join(work_root, "spans"),
        "--lof", lof,
    ]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=seconds + SLACK_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        shutil.rmtree(work, ignore_errors=True)
        sys.exit(f"run.py: workload {workload} did not finish in time")
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.exit(f"run.py: workload {workload} failed (exit {child.returncode})")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def merge(results):
    """One result object for several workloads; metric names get their
    workload's name in front."""
    metrics = {}
    for workload, result in results:
        for name, metric in result["metrics"].items():
            metrics[f"{workload}.{name}"] = metric
    return {
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    # The same length as BENCHMARK.json's run_seconds.
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    target_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    binary, lof = build(bench_dir, target_dir)

    # The traced run runs all four workloads; at half a run's length each
    # it ends within the time one run may take, and still pairs a few
    # traced jobs with untraced ones for the layer-share check.
    seconds = args.seconds / 2 if args.trace else args.seconds

    def run(workload):
        return run_workload(binary, lof, root, workload, args.seed, seconds, args.trace)

    if args.workload and not args.trace:
        final = run(args.workload)
    else:
        results = [(w, run(w)) for w in WORKLOADS]
        if not args.trace:
            for workload, result in results:
                print(json.dumps({"workload": workload, **result}))
        final = merge(results)
    print(json.dumps(final))


if __name__ == "__main__":
    main()
