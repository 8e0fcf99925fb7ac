#!/usr/bin/env python3
"""Self-check of the repository benchmark (short mode, ~1 minute).

    python3 perfbench/selfcheck.py

Run from the repository root. Asserts that
  1. on every workload in BENCHMARK.json, an untraced run emits exactly
     the end_to_end metrics and a traced run exactly the per_layer
     metrics, each with the unit BENCHMARK.json gives, and both runs
     pass their correctness checks;
  2. the correctness check trips: a run whose pinned replay energy or
     pinned session result line was deliberately falsified reports
     correct=false with failures and no metrics.
Exits 0 when every assertion holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def run(workload, trace, corrupt=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", SECONDS, "--trace",
           str(trace)]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=900)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd[1:])}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    return result


def check_metrics(workload, trace, result, expected):
    where = f"{workload} --trace {trace}"
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError(f"{where}: correctness check failed: {result}")
    if result["attempted"] < 1:
        raise AssertionError(f"{where}: nothing attempted")
    got = result["metrics"]
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    if missing or extra:
        raise AssertionError(f"{where}: missing {missing}, unexpected {extra}")
    for name, unit in expected.items():
        m = got[name]
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            raise AssertionError(f"{where}: {name} = {m}, want unit {unit}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in (w["name"] for w in spec["workloads"]):
        check_metrics(w, 0, run(w, 0), e2e)
        check_metrics(w, 1, run(w, 1), layer)
        print(f"ok   {w}: {len(e2e)} end-to-end and {len(layer)} per-layer "
              "metrics emitted with their units", flush=True)
    for corrupt in ("replay", "session"):
        w = spec["workloads"][0]["name"]
        r = run(w, 0, corrupt)
        if r["correct"] or r["failed"] == 0 or r["metrics"]:
            raise AssertionError(f"--corrupt {corrupt} was not caught: {r}")
        print(f"ok   {w}: falsified {corrupt} pin caught "
              f"({r['failed']} of {r['attempted']} failed)", flush=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
