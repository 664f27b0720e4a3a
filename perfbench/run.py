#!/usr/bin/env python3
"""Entry point of the slpdas benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Builds the harness (perfbench/CMakeLists.txt, which compiles the slpdas
library from this checkout's sources) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one workload and forwards the
harness's output. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it records
the host, compiler, build type and thread count. Build logs go to stderr.

Exits non-zero without printing a result when the slpdas sources are not
next to this directory or the build fails. Exits with the harness's status
otherwise: 0 when every correctness check passed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid_large", "udisk_dense", "many_cells")
HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, status=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(status)


def run_bounded(command, timeout, **kwargs):
    """subprocess.run in its own process group. On timeout the whole group
    (make and compiler children included) is killed and reaped before
    TimeoutExpired propagates, so no process outlives the benchmark."""
    with subprocess.Popen(command, start_new_session=True, **kwargs) as child:
        try:
            stdout, _ = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            raise
        return subprocess.CompletedProcess(command, child.returncode, stdout)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(directory):
    """Configures (once) and builds the harness; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no slpdas sources next to perfbench/ (expected CMakeLists.txt "
             "and src/ in " + ROOT + ")")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", directory,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", directory, "--target",
                  "slpdas_perfbench", "-j", jobs])
    for step in steps:
        try:
            done = run_bounded(step, BUILD_TIMEOUT_S, stdout=sys.stderr,
                               stderr=sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step failed: %s" % error)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(directory, "slpdas_perfbench")


def load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="a seconds-long configuration (self-test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    directory = build_dir()
    harness = build(directory)
    workdir = os.path.join(directory, "work",
                           "%s-%d" % (args.workload, os.getpid()))
    command = [harness, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    if args.tiny:
        command.append("--tiny")
    reference = load_reference()
    fingerprint = reference["fingerprints"].get(args.workload)
    if args.seed == reference["default_seed"] and not args.tiny and fingerprint:
        command += ["--expect-fingerprint", fingerprint]
    if args.trace:
        command += ["--spans-out",
                    os.path.join(directory, "spans-%s.jsonl" % args.workload)]

    try:
        done = run_bounded(command, HARNESS_TIMEOUT_S, stdout=subprocess.PIPE,
                           text=True)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % HARNESS_TIMEOUT_S, 3)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("harness printed no result (exit %d)" % done.returncode, 3)
    if set(result) != RESULT_KEYS:
        fail("malformed result line: " + lines[-1], 3)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
