#!/usr/bin/env python3
"""Builds cfq_bench and cfq_served from source, then runs one workload.

    python3 bench/cfq_bench/run.py --workload NAME [--seed N] [--seconds S]
                                   [--trace 0|1] [--out FILE]
                                   [--trace_out FILE]

Run from anywhere inside the repository; everything is built and
written under <repo>/.bench_build. The last line of standard output is
the run's JSON result (see README.md). Exits non-zero, without a
result, when the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BUILD = os.path.join(ROOT, ".bench_build")
# Beyond the measured phase, a run spends this long at most on set-up,
# input generation, checks and drain; a hung one is killed with its
# daemon.
RUN_OVERHEAD_S = 150


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "cfq_bench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                sys.stderr.write("cfq_bench: build failed; see %s\n" % log_path)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--trace_out")
    args = parser.parse_args()

    if not build():
        return 1
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    command = [os.path.join(BUILD, "cfq_bench"),
               "--workload=" + args.workload,
               "--seed=%d" % args.seed,
               "--seconds=%s" % args.seconds,
               "--trace=%d" % args.trace,
               "--served=" + os.path.join(BUILD, "cfq", "tools", "cfq_served"),
               "--work_dir=" + work]
    if args.out:
        command.append("--out=" + os.path.abspath(args.out))
    if args.trace_out:
        command.append("--trace_out=" + os.path.abspath(args.trace_out))
    # Own process group, so a timeout takes the daemon down with it.
    child = subprocess.Popen(command, start_new_session=True)
    timeout = args.seconds + RUN_OVERHEAD_S
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.stderr.write("cfq_bench: run exceeded %g s\n" % timeout)
        return 1


if __name__ == "__main__":
    sys.exit(main())
