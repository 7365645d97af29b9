#!/usr/bin/env python3
"""Build and run the distmwis serving benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold-inline --seed 1 --seconds 30 --trace 0

It builds the Go benchmark in perfbench/ (its own module, which imports the
repository's packages through a replace directive) into .bench_build/, then
runs it with the given arguments. Everything the build and the run write
stays under .bench_build/. The benchmark's last line of standard output is the
result JSON; its exit code is passed through.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def find_go():
    go = shutil.which("go")
    if go:
        return go
    for cand in ("/usr/local/go/bin/go", "/usr/lib/go/bin/go"):
        if os.access(cand, os.X_OK):
            return cand
    return None


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(
        os.path.join(ROOT, "internal", "server")
    ):
        print("perfbench: no distmwis source tree at %s" % ROOT, file=sys.stderr)
        return 1
    go = find_go()
    if go is None:
        print("perfbench: go toolchain not found", file=sys.stderr)
        return 1
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=os.path.join(BUILD, "gotmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary] + argv + ["--workdir", os.path.join(BUILD, "work")]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
