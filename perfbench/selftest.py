#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Runs every workload at reduced size (fewer particles and cost points, one
pass), untraced on one seed and traced on another, and checks that

  * the last output line is the JSON result with exactly the keys
    correct/attempted/failed/metrics, correct on both seeds;
  * every metric named in BENCHMARK.json is printed, as a "metric" line
    and in the JSON, with the unit BENCHMARK.json gives it;
  * end-to-end values are positive, and the traced layer self times cover
    at least 90% of the traced wall time;
  * with one reference swapped for a wrong one (--wrong-ref), failed_frac
    rises above 0 and the result is no longer correct — the oracle is live.

Usage, from the repository root:  python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--reduced", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload}: no output\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = (float(parts[2]), parts[3])
    return done.returncode, result, printed


def check_metrics(where, wanted, result, printed):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(result)}")
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        raise AssertionError(f"{where}: metrics {sorted(got)}")
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if got[name]["unit"] != unit or printed.get(name, (0, ""))[1] != unit:
            raise AssertionError(f"{where}: {name} not printed in {unit}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for w in (w["name"] for w in bench["workloads"]):
        try:
            code, res, printed = run(w, 1, 0)
            check_metrics(f"{w} untraced", bench["end_to_end"], res, printed)
            if code or not res["correct"] or res["failed"]:
                raise AssertionError(f"{w}: oracle failed on seed 1")
            for m in bench["end_to_end"]:
                if not res["metrics"][m["name"]]["value"] > 0:
                    raise AssertionError(f"{w}: {m['name']} is not positive")

            code, res, printed = run(w, 2, 1)
            check_metrics(f"{w} traced", bench["per_layer"], res, printed)
            if code or not res["correct"] or res["failed"]:
                raise AssertionError(f"{w}: oracle failed on seed 2")
            coverage = res["metrics"]["harness.layer_coverage"]["value"]
            if coverage < 0.9:
                raise AssertionError(f"{w}: layer coverage {coverage}")

            code, res, printed = run(w, 1, 0, "--wrong-ref")
            frac = printed.get("failed_frac", (0, ""))[0]
            if code == 0 or res["correct"] or not res["failed"] or frac <= 0:
                raise AssertionError(f"{w}: a wrong reference went unnoticed")
            print(f"ok   {w} (wrong reference: failed_frac {frac:.3g})")
        except (AssertionError, ValueError, KeyError,
                subprocess.TimeoutExpired) as err:
            failures += 1
            print(f"FAIL {w}: {err}")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
