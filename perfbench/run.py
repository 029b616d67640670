#!/usr/bin/env python3
"""Build the perfbench program from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload read_versions --seed 1 --seconds 10 --trace 0

The Go build cache, the binary and the workloads' durable state live
under $CARGO_TARGET_DIR (default .bench_build) at the repository root;
durable state is deleted after every run. The last line of standard
output is the benchmark's JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["append_durable", "read_versions", "update_gc", "paper_append_sim"]
# A run measures at most 60 s twice (traced runs also make an untraced
# one) plus set-up; anything far beyond that is a hang.
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
    )
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    except OSError as e:
        print(f"perfbench: cannot run the go toolchain: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    state = os.path.join(build, f"run-{os.getpid()}")
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-dir", state]
    try:
        return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(state, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
