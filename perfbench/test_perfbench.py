#!/usr/bin/env python3
"""Self-test of the repository benchmark, on shrunken inputs.

    python3 perfbench/test_perfbench.py        # from the repository root

Checks that
  * every workload of perfbench/workloads.json passes its answer checks
    and prints exactly the
    end-to-end metrics BENCHMARK.json names (untraced) or the per-layer
    metrics (traced);
  * each answer check FAILS, exiting non-zero with "correct": false, when
    its expected answer is deliberately corrupted (run.py --corrupt);
  * two traced runs with the same seed report identical counts.
Takes a few minutes; exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCALE = "0.1"
SECONDS = "4"


def run(workload, seed=3, trace=0, corrupt=None):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE]
    if corrupt:
        command += ["--corrupt", corrupt]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    summary = None
    if lines:
        try:
            summary = json.loads(lines[-1])
        except ValueError:
            summary = None
    return result.returncode, summary, result.stdout, result.stderr


def expect(condition, message, output=""):
    if not condition:
        print("FAIL: " + message)
        if output:
            print(output[-3000:])
        sys.exit(1)
    print("ok: " + message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    # Every workload perfbench defines, including those BENCHMARK.json
    # leaves out of its timed list.
    with open(os.path.join(ROOT, "perfbench", "workloads.json")) as spec_file:
        workloads = json.load(spec_file)["workloads"]

    for workload in workloads:
        code, summary, out, err = run(workload)
        expect(code == 0 and summary and summary["correct"]
               and set(summary["metrics"]) == end_to_end
               and all(m["value"] > 0 for m in summary["metrics"].values()),
               workload + ": untraced run passes its checks and prints "
               "every end-to-end metric", out + err)

        counts = []
        for _ in range(2):
            code, summary, out, err = run(workload, trace=1)
            expect(code == 0 and summary and summary["correct"]
                   and set(summary["metrics"]) == per_layer,
                   workload + ": traced run prints every per-layer metric",
                   out + err)
            counts.append([line for line in out.splitlines()
                           if line.startswith(("counts:", "join "))])
        expect(counts[0] and counts[0] == counts[1],
               workload + ": traced counts repeat exactly for one seed",
               "\n".join(map(str, counts)))

    for workload, check in (("lookup", "lookup"), ("churn", "churn"),
                            ("churn", "relaunch"),
                            ("batch_join", "batch_join")):
        code, summary, out, err = run(workload, corrupt=check)
        expect(code == 1 and summary is not None and not summary["correct"],
               "%s: the %s check fails on a corrupted expected answer"
               % (workload, check), out + err)
    print("all benchmark self-tests passed")


if __name__ == "__main__":
    main()
