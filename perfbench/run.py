#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (which compiles the repository's libraries from src/) into
.bench_build/ (or $CARGO_TARGET_DIR when set); later runs only rebuild what
changed. Build output goes to stderr; the benchmark's last stdout line is
its JSON result. Exits non-zero without a result when the build fails.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

# One run of a workload ends within this many seconds, build excluded.
RUN_TIMEOUT_S = 175


def main():
    here = Path(__file__).resolve().parent
    root = here.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no library sources under %s/src" % root, file=sys.stderr)
        return 1
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = root / build_root
    build = build_root / "perfbench"
    jobs = str(os.cpu_count() or 1)
    if not (build / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(here), "-B", str(build),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            print("perfbench: configure failed", file=sys.stderr)
            return 1
    if subprocess.run(["cmake", "--build", str(build), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        bench = subprocess.run([str(build / "qjo_perfbench")] + sys.argv[1:],
                               cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
