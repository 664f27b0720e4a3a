#!/usr/bin/env python3
"""Self-test of the slpdas benchmark.

    python3 perfbench/selftest.py

Runs the tiny configuration of every workload in BENCHMARK.json, untraced
and traced, on the default seed and on the held-out seed, and checks that:

  * each run exits 0 and reports correct, with no failed cell;
  * the metrics are exactly the BENCHMARK.json end_to_end (--trace 0) or
    per_layer (--trace 1) names, each with its declared unit, a finite
    value, and a name matching [A-Za-z0-9_.-]+;
  * slpdas_lint finds nothing in the benchmark's C++ files.

Takes well under a minute once the harness is built.
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py: build directory and build step)


def check_result(label, result, declared):
    problems = []
    if result["correct"] is not True or result["failed"] != 0:
        problems.append("not correct: %r" % {k: result[k] for k in
                                             ("correct", "attempted", "failed")})
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append("metric names differ from BENCHMARK.json: missing %s, "
                        "extra %s" % (sorted(set(declared) - set(metrics)),
                                      sorted(set(metrics) - set(declared))))
    for name, metric in metrics.items():
        if not NAME.fullmatch(name):
            problems.append("bad metric name %r" % name)
        if name in declared and metric.get("unit") != declared[name]:
            problems.append("%s: unit %r, declared %r"
                            % (name, metric.get("unit"), declared[name]))
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: value %r is not a finite number" % (name, value))
    return ["%s: %s" % (label, p) for p in problems]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    reference = run.load_reference()
    declared = {
        0: {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
        1: {m["name"]: m["unit"] for m in benchmark["per_layer"]},
    }
    problems = []
    for workload in benchmark["workloads"]:
        if not NAME.fullmatch(workload["name"]):
            problems.append("bad workload name %r" % workload["name"])
        for seed in (reference["default_seed"], reference["held_out_seed"]):
            for trace in (0, 1):
                label = "%s seed=%d trace=%d" % (workload["name"], seed, trace)
                done = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                     workload["name"], "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--tiny"],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
                if done.returncode != 0:
                    problems.append("%s: exit %d" % (label, done.returncode))
                    print("FAIL", label, flush=True)
                    continue
                result = json.loads(done.stdout.strip().splitlines()[-1])
                found = check_result(label, result, declared[trace])
                problems += found
                print("FAIL" if found else "ok  ", label, flush=True)

    directory = run.build_dir()
    built = subprocess.run(["cmake", "--build", directory, "--target",
                            "slpdas_lint"], stdout=sys.stderr, check=False)
    if built.returncode != 0:
        problems.append("slpdas_lint did not build")
    else:
        lint = subprocess.run([os.path.join(directory, "slpdas", "tools",
                                            "slpdas_lint"), HERE], check=False)
        if lint.returncode != 0:
            problems.append("slpdas_lint reported findings in perfbench/")

    for problem in problems:
        print("FAIL " + problem)
    print("selftest: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
