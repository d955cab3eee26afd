#!/usr/bin/env python3
"""Builds the monitor server and the benchmark from source, then runs one
benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload ingest|session_churn|monitored_eval \
        --seed N --seconds S --trace 0|1

The last line of standard output is the result object. Build output goes
to standard error; build products go to $CARGO_TARGET_DIR (default
`.bench_build`), traces and reports to `.bench_out`.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 175
# What the build reads; hashed into the provenance when git is absent.
SOURCES = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def tree_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        p = ROOT / top
        files = [p] if p.is_file() else sorted(q for q in p.rglob("*") if q.is_file())
        for f in files:
            if "target" in f.relative_to(ROOT).parts:
                continue
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def revision():
    try:
        rev = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = rev.stdout.split()
        # Only a repository rooted here names this tree's revision.
        if rev.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT.resolve():
            return f"git:{lines[1]} tree:{tree_digest()}"
    except (OSError, subprocess.TimeoutExpired):
        pass
    return f"tree:{tree_digest()}"


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "monsem"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(BENCH / "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def main():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail("run from the root of a checkout holding the monsem sources")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build(target)
    cmd = [str(target / "release" / "perfbench"), *sys.argv[1:],
           "--monsem", str(target / "release" / "monsem"),
           "--out", str(ROOT / ".bench_out"), "--revision", revision()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
