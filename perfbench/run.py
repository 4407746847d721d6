#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper-figs|incast|collectives|service-mix \
        --seed N --seconds S --trace 0|1 [--tiny]

Run it from the root of a checkout. Cargo's output goes to
$CARGO_TARGET_DIR (default `.bench_build`). The last line of stdout is the
JSON result; a build failure or an output that differs from the reference
makes the exit code non-zero.

Every workload but `collectives` runs pinned to one CPU: their programs run
one thread at a time, and on a small VM a thread woken on the other vCPU
waits for the host to schedule it, which made service-mix round trips
swing by a factor of two between runs. `collectives` keeps every CPU for
its parallel engine.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def capture(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def pin_to_one_cpu(argv):
    """A pre-exec hook that pins the benchmark to its last allowed CPU."""
    workload = argv[argv.index("--workload") + 1] if "--workload" in argv[:-1] else None
    if workload in (None, "collectives") or not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    return lambda: os.sched_setaffinity(0, {cpu})


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["MPIQ_PERFBENCH_RUSTC"] = capture(["rustc", "-V"]) or "unknown"
    env["MPIQ_PERFBENCH_GIT_REV"] = (
        capture(["git", "-C", ROOT, "rev-parse", "HEAD"]) or "unknown (not a git checkout)"
    )
    binary = os.path.join(target, "release", "perfbench")
    argv = sys.argv[1:]
    return subprocess.run(
        [binary] + argv, env=env, cwd=ROOT, check=False, preexec_fn=pin_to_one_cpu(argv)
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
