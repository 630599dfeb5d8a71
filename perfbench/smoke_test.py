#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny op count.

Runs every workload in BENCHMARK.json once untraced and once traced,
and checks that the result line names every end-to-end (resp.
per-layer) metric with its unit and a finite value, and that no
checked output failed.  Exit status 0 on success, 1 on any finding.

    python3 perfbench/smoke_test.py
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--tiny"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None, f"exit status {done.returncode}"
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, json.JSONDecodeError) as e:
        return None, f"no JSON result line ({e})"


def problems(result, expected):
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        found.append(f"failed {result.get('failed')} of "
                     f"{result.get('attempted')} checked outputs")
    if not isinstance(result.get("attempted"), int) or \
            result["attempted"] < 1:
        found.append("attempted < 1")
    metrics = result.get("metrics", {})
    for spec in expected:
        m = metrics.get(spec["name"])
        if m is None:
            found.append(f"missing metric {spec['name']}")
        elif m.get("unit") != spec["unit"]:
            found.append(f"{spec['name']} unit {m.get('unit')!r}, "
                         f"want {spec['unit']!r}")
        elif not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            found.append(f"{spec['name']} value {m.get('value')!r}")
    extra = set(metrics) - {spec["name"] for spec in expected}
    if extra:
        found.append(f"unlisted metrics {sorted(extra)}")
    return found


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            result, error = run(workload, trace)
            found = [error] if error else problems(result, expected)
            status = "ok" if not found else "FAIL"
            print(f"{status} {workload} --trace {trace}")
            for p in found:
                print(f"  {p}")
            failures += bool(found)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
