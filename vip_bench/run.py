#!/usr/bin/env python3
"""Build vip_bench from this checkout, then run it with the given arguments.

    python3 vip_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 vip_bench/run.py --seed 1 --out result.json       # all workloads

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; build output goes to stderr so the last line of stdout is
vip_bench's result.  Exits non-zero without a result when the simulator
sources are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("vip_bench: no simulator sources (src/) beside vip_bench/")
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", build, "--target", "vip_bench",
                  "-j", str(os.cpu_count() or 1)])
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit("vip_bench: build failed: " + " ".join(cmd))
    binary = os.path.join(build, "vip_bench")
    sys.exit(subprocess.run([binary] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
