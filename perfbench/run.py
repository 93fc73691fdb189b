#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload chain --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Build output
goes to stderr; stdout carries the metric table, the provenance record and,
as its last line, the JSON result. The exit code is the benchmark's: 0 only
when every checked operation produced the expected result.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("chain", "stencil", "serving", "wire")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def target_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    bdir = target_dir() / "perfbench"
    if not (bdir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(bdir),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(bdir), "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return bdir / "perfbench"


def provenance():
    """Commit (when the tree is a git checkout) and a digest of the sources
    the binary was built from, which identifies the code either way."""
    commit = ""
    try:
        top, head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"commit": commit or "unknown", "source_sha256": digest.hexdigest()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--trace-out", help="Chrome trace of a traced run")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes (smoke test)")
    ap.add_argument("--expect-offset", type=int, default=0,
                    help="perturb every expected result (smoke test)")
    args = ap.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    trace_out = args.trace_out or str(
        target_dir() / "traces" / f"{args.workload}-seed{args.seed}.json")
    Path(trace_out).parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_out,
           "--expect-offset", str(args.expect_offset)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in "
              f"{RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1

    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout)
        print(f"perfbench: no result line (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 1
    stamp = provenance()
    results = target_dir() / "perfbench" / "results.jsonl"
    for line in lines[:-1]:
        if line.startswith("perfbench-record "):
            record = json.loads(line[len("perfbench-record "):])
            record.update(stamp)
            record["correct"] = result["correct"]
            line = "perfbench-record " + json.dumps(record, sort_keys=True)
            with results.open("a") as f:
                f.write(line[len("perfbench-record "):] + "\n")
        print(line)
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
