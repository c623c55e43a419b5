#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload lockstep --seed 1 --seconds 10 --trace 0

It builds the perfbench Go program from source into .bench_build/ (the Go
build cache lives there too, so nothing is written outside the checkout),
runs it with the given arguments and passes its output through; the last
line of standard output is the JSON result. A failed build or run exits
non-zero without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def go_binary():
    found = shutil.which("go")
    if found:
        return found
    for candidate in ("/usr/local/go/bin/go", "/usr/lib/go/bin/go"):
        if os.access(candidate, os.X_OK):
            return candidate
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    os.makedirs(out, exist_ok=True)
    go = go_binary()
    if go is None:
        print("perfbench: no go toolchain found", file=sys.stderr)
        return 1

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "XDG_CACHE_HOME": os.path.join(out, "cache"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run([go, "build", "-o", binary, "."], cwd=src, env=env,
                               capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed:\n" + build.stderr, file=sys.stderr)
        return 1

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-spans", out]
    try:
        run = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        print("perfbench: run exited with %d" % run.returncode, file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
