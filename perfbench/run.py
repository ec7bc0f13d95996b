#!/usr/bin/env python3
"""Build and run the Condor benchmark.

    python3 perfbench/run.py --workload <paper_month|fleet_2k> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds `perfbench` (release) against the
repository's crates, then runs one workload; the last line of standard
output is the JSON result. Build output goes to standard error. Without the
repository's crates beside it, the script exits nonzero without building or
printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("perfbench: the repository's crates are missing; nothing to build", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(target, "release", "condor-perfbench")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
