#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  It builds the simulator from the
checkout's sources together with the harness in perfbench/ (CMake,
Release) into $CARGO_TARGET_DIR/perfbench-<digest> (default
.bench_build), where the digest covers the checkout's path and every
source file the build reads, so a shared target directory never builds
one tree's code from another's CMake cache or objects.  It runs
one benchmark process and passes its output through: the last line of
stdout is the result object {"correct", "attempted", "failed",
"metrics"}, the line before it the host context.  Build logs go to
stderr.  --self-test builds and runs the harness's own unit tests.

Workloads, metrics and their bounds are declared in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ROOT / "perfbench"
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest(dirs):
    """SHA-1 over the relative path and bytes of every file in dirs."""
    digest = hashlib.sha1()
    for top in dirs:
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    key = hashlib.sha1(str(ROOT).encode())
    key.update(source_digest(["src", "perfbench"]).encode())
    return target / ("perfbench-" + key.hexdigest()[:16])


def build(targets):
    if not (ROOT / "src" / "system" / "system.hh").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    # Keep the compiler's temporary files inside the build directory.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HARNESS), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target"]
                 + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out


def revision():
    """Git commit of the checkout, else a digest of its sources."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        pass
    return "tree-" + source_digest(["src"])[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        out = build(["perfbench_tests"])
        sys.exit(subprocess.run([str(out / "perfbench_tests")]).returncode)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    out = build(["perfbench"])
    traces = out / "traces"
    traces.mkdir(exist_ok=True)
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(ROOT),
           "--out", str(traces), "--rev", revision()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
