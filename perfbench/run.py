#!/usr/bin/env python3
"""Build the simulator, run one benchmark workload, print its metrics.

    python3 perfbench/run.py --workload fig06_sweep --seed 1 \
        --seconds 10 --trace 0

Builds perfbench_driver (perfbench/CMakeLists.txt, the simulator
libraries from src/) into $CARGO_TARGET_DIR or .bench_build, runs it,
prints one digest line per cell (and per crash pair), and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. See README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("fig06_sweep", "check_matrix", "crash_sweep")
DRIVER_TIMEOUT_S = 170


def build_jobs():
    return max(1, min(4, os.cpu_count() or 1))


def build_dir():
    root = os.path.dirname(HERE)
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configure and build perfbench_driver; return its path."""
    out = build_dir()
    steps = [["cmake", "-S", HERE, "-B", out,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "--target", "perfbench_driver",
              "-j", str(build_jobs())]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_driver")


def run_driver(driver, workload, seed, seconds, trace, control=None):
    """Run the driver and return its parsed document."""
    run_dir = os.path.join(build_dir(), "runs",
                           "%s-%d" % (workload, os.getpid()))
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--dir", run_dir]
    if control:
        cmd += ["--control", control]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit("perfbench: driver failed (exit %d)"
                         % proc.returncode)
    return json.loads(proc.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    doc = run_driver(build(), args.workload, args.seed, args.seconds,
                     args.trace)
    result, digests = metrics.evaluate(doc, args.trace)

    for (name, _), d in sorted(digests.items(),
                               key=lambda kv: (kv[0][1], kv[0][0])):
        print("digest %s %s %s" % (args.workload, name, d))
    if args.trace:
        spans_path = os.path.join(build_dir(), "spans-%s-seed%d.json"
                                  % (args.workload, args.seed))
        with open(spans_path, "w") as f:
            json.dump(doc["spans"], f)
        print("spans written to %s" % spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
