#!/usr/bin/env python3
"""Smoke test of the repository benchmark: every workload at tiny size.

    python3 perfbench/smoke_test.py

For each workload it checks that
  * an untraced run is correct and prints every end-to-end metric that
    BENCHMARK.json declares, with its unit;
  * a traced run prints every per-layer metric with its unit and writes a
    Chrome trace (trace events plus the benchmark's own spans);
  * a run given a deliberately wrong expected result (--expect-offset 1)
    is reported as failed (correct false, failed > 0, non-zero exit),
    not as fast.
Exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke",
           *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=300)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"FAIL {workload} trace={trace} {extra}: no result "
                         f"line (exit {proc.returncode})")
    return proc.returncode, result


def check(cond, what):
    if not cond:
        raise SystemExit(f"FAIL {what}")
    print(f"ok   {what}")


def check_metrics(workload, result, specs):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in specs}
    check(got == want, f"{workload}: exactly the {len(want)} declared "
          f"metrics with their units")


def main():
    for w in (x["name"] for x in SPEC["workloads"]):
        code, result = run(w, 0)
        check(code == 0 and result["correct"] and result["failed"] == 0
              and result["attempted"] > 0, f"{w}: untraced run correct")
        check_metrics(w, result, SPEC["end_to_end"])
        check(all(result["metrics"][m["name"]]["value"] > 0
                  for m in SPEC["end_to_end"]),
              f"{w}: end-to-end metrics non-zero")

        trace_out = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
                     / "traces" / f"smoke-{w}.json")
        code, result = run(w, 1, "--trace-out", str(trace_out))
        check(code == 0 and result["correct"], f"{w}: traced run correct")
        check_metrics(w, result, SPEC["per_layer"])
        trace = json.loads(trace_out.read_text())
        events = trace["traceEvents"]
        check(any(e.get("cat") == "task" for e in events)
              and any(e.get("cat") == "perfbench" for e in events),
              f"{w}: Chrome trace holds task and benchmark spans")

        code, result = run(w, 0, "--expect-offset", "1")
        check(code != 0 and not result["correct"] and result["failed"] > 0,
              f"{w}: wrong expected result reported as failed")
    print("smoke test passed")


if __name__ == "__main__":
    main()
