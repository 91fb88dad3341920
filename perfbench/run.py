#!/usr/bin/env python3
"""Builds the benchmark and the release `shadowdpd` from source, then runs
the benchmark with the given arguments.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Cargo builds into `$CARGO_TARGET_DIR` (default `.bench_build`). Its
output goes to standard error, so the benchmark's result stays the last
line of standard output.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(env, *args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: `{' '.join(cmd)}` failed")


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build(env, "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"))
    build(env, "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
          "-p", "shadowdp-service", "--bin", "shadowdpd")
    bench = os.path.join(target, "release", "perfbench")
    daemon = os.path.join(target, "release", "shadowdpd")
    os.chdir(ROOT)
    os.execv(bench, [bench, *sys.argv[1:], "--daemon", daemon])


if __name__ == "__main__":
    main()
