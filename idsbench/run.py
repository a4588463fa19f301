#!/usr/bin/env python3
"""Build the IDS benchmark from source, then run one workload.

Usage (from the repository root):
    python3 idsbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 idsbench/run.py --selftest

The benchmark is its own CMake project (idsbench/CMakeLists.txt) that
compiles the library sources under src/ unchanged. Build output goes to
.bench_build/idsbench and to stderr, so the last line on stdout is the
benchmark's JSON result. Exits non-zero, printing no result, when the
sources are missing or the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "idsbench")
BINARY = os.path.join(BUILD, "idsbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("idsbench: no library sources at src/; cannot build",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "idsbench",
                  "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"idsbench: build step failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"idsbench: build step exited {done.returncode}: "
                  f"{' '.join(cmd)}", file=sys.stderr)
            return False
    return os.path.isfile(BINARY)


def main():
    if not build():
        return 1
    proc = subprocess.Popen([BINARY] + sys.argv[1:], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"idsbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
