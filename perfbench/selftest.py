#!/usr/bin/env python3
"""The benchmark's own self-test.

Runs every workload of BENCHMARK.json at a tiny size, untraced and
traced, and checks that the last output line is the result object, that
every metric BENCHMARK.json names for that kind of run is printed, finite
and carries its unit, and that every correctness gate passed. Then runs
every workload with one deliberately wrong expectation (`--gate-fault`:
one looping flow removed from the truth set, or one trial too many
expected) and checks that the gate catches it.

Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import math
import subprocess
import sys

OUT = "perfbench/out/selftest"


def run(command, workload, trace, extra=()):
    args = command + [
        "--workload", workload,
        "--seed", "1",
        "--seconds", "1",
        "--trace", str(trace),
        "--tiny",
        "--out", OUT,
        *extra,
    ]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def check_result(result, metrics, problems, label):
    if result is None:
        problems.append(f"{label}: no result line")
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys are {sorted(result)}")
        return
    if result["correct"] is not True:
        problems.append(f"{label}: a correctness gate failed")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"{label}: attempted = {result['attempted']!r}")
    if not (isinstance(result["failed"], int) and result["failed"] >= 0):
        problems.append(f"{label}: failed = {result['failed']!r}")
    printed = result["metrics"]
    wanted = {m["name"]: m["unit"] for m in metrics}
    if set(printed) != set(wanted):
        problems.append(
            f"{label}: metrics missing {sorted(set(wanted) - set(printed))}, "
            f"unexpected {sorted(set(printed) - set(wanted))}"
        )
    for name, unit in wanted.items():
        m = printed.get(name)
        if m is None:
            continue
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} = {value!r} is not a finite number")
        if m.get("unit") != unit:
            problems.append(f"{label}: {name} has unit {m.get('unit')!r}, want {unit!r}")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace, metrics in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = f"{name} trace={trace}"
            proc, result = run(command, name, trace)
            if proc.returncode != 0:
                problems.append(f"{label}: exit code {proc.returncode}: {proc.stderr[-400:]}")
            check_result(result, metrics, problems, label)
            print(f"{label}: exit {proc.returncode}", flush=True)
        label = f"{name} gate-fault"
        proc, result = run(command, name, 0, ("--gate-fault",))
        if proc.returncode == 0 or result is None or result.get("correct") is not False:
            problems.append(f"{label}: a wrong expectation did not fail the gate")
        elif "GATE FAILED" not in proc.stderr or "seed 1" not in proc.stderr:
            problems.append(f"{label}: the failure does not name its seed")
        print(f"{label}: exit {proc.returncode}", flush=True)
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
