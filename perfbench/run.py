#!/usr/bin/env python3
"""End-to-end benchmark of pwss: builds the program from this checkout, runs
one workload, and relays the result object as the last line of stdout.

    python3 perfbench/run.py --workload ws-blocking|zipf-bulk|wire-durable \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test    # the checks must catch bad input

--backend NAME runs an untraced workload on another registry backend (the
reference figures in perfbench/README.md).

Run from the root of a checkout. The build tree is $CARGO_TARGET_DIR when
set, else .bench_build; the library and pwss_serve come from the root
CMakeLists.txt (Release), the benchmark from perfbench/CMakeLists.txt.
Build output goes to stderr.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ws-blocking", "zipf-bulk", "wire-durable")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures and builds (incrementally) under a lock on the build tree."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"{ROOT} holds no pwss sources (CMakeLists.txt and src/) to build")
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", cmake_dir, "-j", jobs, "--target",
                      "pwss_perfbench", "perfbench_selftest", "pwss_serve"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "bin")


def kill_group(proc):
    """SIGKILLs proc's process group and waits until every member is gone
    (pwss_serve, started by the benchmark, is in the same group)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(600):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run(cmd, timeout):
    """Runs cmd in its own process group; kills the group on timeout or on
    a signal to this script, and always waits for it."""
    proc = subprocess.Popen(cmd, start_new_session=True)

    def stop(signum, _frame):
        kill_group(proc)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        fail(f"run exceeded {timeout} s and was killed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--backend")
    a = ap.parse_args()
    if not a.self_test and (a.workload is None or a.seed is None or
                            a.seconds is None or a.trace is None):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not a.self_test and (a.seed < 0 or a.seconds < 1):
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bin_dir = build(build_dir)
    if a.self_test:
        sys.exit(run([os.path.join(bin_dir, "perfbench_selftest")], RUN_TIMEOUT_S))

    work_dir = os.path.join(build_dir, "work", f"{a.workload}-{os.getpid()}")
    cmd = [os.path.join(bin_dir, "pwss_perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--bin-dir", bin_dir, "--work-dir", work_dir,
           "--trace-dir", os.path.join(build_dir, "traces")]
    if a.backend:
        cmd += ["--backend", a.backend]
    try:
        rc = run(cmd, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
