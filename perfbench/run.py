#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold-tune --seed 1 --seconds 25 --trace 0

The Go program in this directory is built into .bench_build/ (with the Go
build cache and configuration there too, so nothing is written outside the
checkout) and then replaces this process with the given arguments. A failed
build exits non-zero before any result is printed.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out_dir = os.path.join(root, ".bench_build")
    binary = os.path.join(out_dir, "perfbench", "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out_dir, "gocache"),
        GOMODCACHE=os.path.join(out_dir, "gomodcache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        XDG_CONFIG_HOME=os.path.join(out_dir, "config"),
    )
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=here,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    os.execv(binary, [binary, "--root", root] + sys.argv[1:])
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
