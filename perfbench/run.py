#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the ssjoin library, ssjoin_server and
the ssjoin_perfbench binary from source into .bench_build/ (a no-op
rebuild after the first run), then runs one workload with the settings in
perfbench/workloads.json. The binary's report goes to stdout; its last
line is one JSON object with the keys correct, attempted, failed and
metrics. Build output goes to stderr.

The binary runs in its own process group with a work directory under
.bench_build/; whatever way it ends, every process in that group is
killed and waited for, and the work directory is removed.

Test hooks (perfbench/test_perfbench.py): --corrupt CHECK deliberately
corrupts one expected answer; --scale F shrinks the inputs.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170
SCALED_PARAMS = ("records", "lookup_pool", "insert_pool")


def build():
    """Configures (once) and builds the benchmark package. Returns the
    build directory, or None after printing why the build failed."""
    build_dir = os.path.abspath(BUILD_DIR)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-B", build_dir, "-S", HERE,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j4",
                  "--target", "ssjoin_perfbench", "ssjoin_server"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("benchmark build failed: " + " ".join(step), file=sys.stderr)
            return None
    return build_dir


def stop_group(process):
    """SIGKILLs the binary's process group, reaps the binary, and waits
    until no process of the group is left."""
    pgid = process.pid
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", default=None)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as spec_file:
        workloads = json.load(spec_file)["workloads"]
    if args.workload not in workloads:
        print("unknown workload %r (have: %s)"
              % (args.workload, ", ".join(sorted(workloads))), file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("--seconds must be > 0 and --seed >= 0", file=sys.stderr)
        return 2

    build_dir = build()
    if build_dir is None:
        return 1

    params = dict(workloads[args.workload]["params"])
    for key in SCALED_PARAMS:
        if key in params and args.scale != 1.0:
            params[key] = max(1, int(params[key] * args.scale))
    workdir = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    command = [
        os.path.join(build_dir, "ssjoin_perfbench"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%r" % args.seconds,
        "--trace=%d" % args.trace,
        "--workdir=" + workdir,
        "--server=" + os.path.join(build_dir, "ssjoin_server"),
        "--trace_dir=" + os.path.join(build_dir, "traces"),
    ]
    command += ["--%s=%s" % (key, value) for key, value in params.items()]
    if args.corrupt:
        command.append("--corrupt=" + args.corrupt)

    sys.stdout.flush()
    # A SIGTERM to this script must still stop the binary's process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    process = subprocess.Popen(command, start_new_session=True)
    try:
        code = process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        code = 124
    except KeyboardInterrupt:
        code = 130
    finally:
        stop_group(process)
        shutil.rmtree(workdir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
