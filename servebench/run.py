#!/usr/bin/env python3
"""Build servebench in Release and run one workload.

    python3 servebench/run.py --workload office-fleet --seed 1 --seconds 10 --trace 0

Run from the repository root. The build lives under .bench_build/
(the directory CARGO_TARGET_DIR names, when it is set). Everything after
the build is the servebench binary's own output: provenance, failed
checks, one `name value unit` line per metric, and a final JSON line.
Exits non-zero without a result when the loctk sources are missing or
the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "servebench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("servebench: no loctk sources at %s/src\n" % ROOT)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    quiet = {"stdout": subprocess.DEVNULL}
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, **quiet) != 0:
            return False
    return subprocess.call(["cmake", "--build", out, "--target", "servebench", "-j", jobs],
                           **quiet) == 0


def main():
    out = build_dir()
    if not build(out):
        sys.stderr.write("servebench: build failed\n")
        return 1
    args = sys.argv[1:]
    if "--self-test" not in args and "--work-dir" not in args:
        args += ["--work-dir", os.path.join(os.path.dirname(out), "servebench-work")]
    sys.stdout.flush()
    return subprocess.call([os.path.join(out, "servebench")] + args, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
