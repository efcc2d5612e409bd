#!/usr/bin/env python3
"""Build the tracex benchmark from source and run one workload.

Run from the repository root:

    python3 tracexbench/run.py --workload study-cold --seed 1 --seconds 20 --trace 0

The Go toolchain's caches, temporary files and the benchmark's own scratch
state all live under .bench_build/ in the repository root, so a run reads
and writes nothing outside the checkout. The last line of standard output
is the JSON result; see NOTES.md for the workloads and metrics.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# A run must end within 180 s; the first run in a checkout also builds.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def go_env():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "go-cache"),
        "GOMODCACHE": os.path.join(BUILD, "go-mod"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "XDG_CACHE_HOME": os.path.join(BUILD, "cache"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    return env


def main():
    go = shutil.which("go")
    if go is None:
        print("tracexbench: the go toolchain is not on PATH", file=sys.stderr)
        return 1
    env = go_env()
    binary = os.path.join(BUILD, "tracexbench")
    try:
        build = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("tracexbench: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("tracexbench: build failed", file=sys.stderr)
        return 1
    workdir = os.path.join(BUILD, "work")
    os.makedirs(workdir, exist_ok=True)
    try:
        run = subprocess.run([binary, "--workdir", workdir] + sys.argv[1:], cwd=ROOT, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("tracexbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
