#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 msfu_bench/smoke.py

Runs every workload at smoke size (``--seconds 0``) twice with tracing off
and twice with tracing on, from the repository root, and checks that:

* the last stdout line has exactly the keys correct/attempted/failed/metrics,
  ``correct`` is true, ``failed`` is 0 and ``attempted`` is at least 1;
* the metric names and units are exactly BENCHMARK.json's end_to_end
  (tracing off) or per_layer (tracing on) metrics, each value a number;
* the deterministic metrics are identical between the two runs.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETERMINISTIC = {
    0: ("volume_vs_critical_geomean", "hs_volume_reduction"),
    1: ("sim.cycles", "sim.routing_conflicts", "sim.runs", "layout.maps",
        "core.cache.hits", "core.cache.misses", "core.persist.appends"),
}


def run(workload, seed, trace):
    done = subprocess.run([sys.executable, "msfu_bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_schema(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] is True, result
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, (sorted(set(got) ^ set(want)), got)
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, name
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: bench["end_to_end"], 1: bench["per_layer"]}
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            try:
                first, second = run(workload, 1, trace), run(workload, 2, trace)
                for result in (first, second):
                    check_schema(result, declared[trace])
                for name in DETERMINISTIC[trace]:
                    a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                    assert a == b, f"{name}: {a} != {b}"
                print(f"ok   {workload} trace={trace}")
            except AssertionError as error:
                failures += 1
                print(f"FAIL {workload} trace={trace}: {error}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
