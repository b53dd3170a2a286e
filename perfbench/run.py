#!/usr/bin/env python3
"""Build and run the mixq benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds
libmixq and the harness (perfbench/CMakeLists.txt, Release) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is not
set; later runs only bring that build up to date. The harness output is
passed through; its last line is the JSON result. Without a buildable
mixq next to this directory, or when the harness fails to produce a
result, the script exits non-zero and prints no result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("cnn-poisson", "lstm-saturated", "qat-export")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cmd, timeout, stdout, env=None):
    """Run @cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"timed out after {timeout} s: {' '.join(cmd)}",
              file=sys.stderr)
        return None, None
    return proc.returncode, out


def build(root, build_dir):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "mixq_perfbench", "-j", str(os.cpu_count() or 1)])
    # Keep the compilers' temporary files inside the build directory.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        code, _ = run(cmd, BUILD_TIMEOUT_S, sys.stderr, env)
        if code != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or
                          ".bench_build")
    build_dir = os.path.join(target, "perfbench")
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    code, out = run([os.path.join(build_dir, "mixq_perfbench"),
                     "--workload", args.workload,
                     "--seed", str(args.seed),
                     "--seconds", str(args.seconds),
                     "--trace", str(args.trace),
                     "--out-dir", os.path.join(target, "perfbench-run")],
                    RUN_TIMEOUT_S, subprocess.PIPE)
    if out is None:
        return 1
    text = out.decode()
    lines = text.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == RESULT_KEYS
    except (IndexError, ValueError):
        ok = False
    if not ok:
        sys.stderr.write(text)
        print("perfbench: the harness printed no result", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
