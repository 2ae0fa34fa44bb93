#!/usr/bin/env python3
"""Builds the pre-executor from this checkout's src/ and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root. Nothing prebuilt is ever used: the sources are compiled (or
brought up to date) on every invocation, and a checkout without src/ fails
with a non-zero exit before any result is printed. The benchmark binary
prints the result as the last line of stdout; build output goes to stderr.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no program sources under %s/src\n" % ROOT)
        return False
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = ["cmake", "--build", out, "-j", jobs]
    return subprocess.run(steps, stdout=sys.stderr).returncode == 0


def main(argv):
    out = build_dir()
    if not build(out):
        sys.stderr.write("perfbench: build failed\n")
        return 1
    binary = "perfbench_selftest" if argv[:1] == ["--self-test"] else "perfbench"
    args = [] if binary == "perfbench_selftest" else argv
    return subprocess.run([os.path.join(out, binary)] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
