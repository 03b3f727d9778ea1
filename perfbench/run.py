#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload bulk-sum --seed 1 --seconds 30 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and the run's scratch and trace files to
.bench_work, both inside the checkout. Write-ahead logs go to
.bench_work/wal, with a private tmpfs mounted there when the host allows
an unprivileged user and mount namespace; the run prints which
filesystem its log was on. The last line of standard output is the
result object; see DESIGN.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run takes well under this; the benchmark must end within 180 s.
RUN_TIMEOUT_S = 170


def private_tmpfs(path):
    """A command prefix that runs the rest of its argv with a fresh tmpfs
    mounted at `path`, or None if the host does not allow one.

    The mount lives in a new user and mount namespace: only the benchmark
    process tree sees it, nothing outside the checkout is touched, and it
    disappears with the process. A fsync there costs about 1 us instead of
    a VM disk's ~100 us and its tail, which would otherwise dominate every
    durable Add and swing with other tenants' I/O.
    """
    os.makedirs(path, exist_ok=True)
    mount = 'mount -t tmpfs -o size=1g,mode=0700 perfbench-wal "$0" && exec "$@"'
    prefix = ["unshare", "--user", "--map-root-user", "--mount", "sh", "-c", mount, path]
    try:
        probe = subprocess.run(prefix + ["true"], stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return prefix if probe.returncode == 0 else None


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed (run from a full checkout of the repository)", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "oisum-perfbench")
    work = os.path.join(ROOT, ".bench_work")
    wal = os.path.join(work, "wal")
    argv = [exe, *sys.argv[1:], "--work-dir", work, "--wal-dir", wal]
    argv = (private_tmpfs(wal) or []) + argv
    try:
        # subprocess.run kills and reaps the benchmark if it overruns.
        return subprocess.run(argv, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
