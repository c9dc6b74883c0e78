"""Benchmark self-test: every workload at tiny sizes, untraced and
traced.  Asserts that each run succeeds with every output check
passing, and prints every metric BENCHMARK.json names, with its unit.

    python3 perfbench/selftest.py        (from the repository root)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.getcwd()]

from workloads import LAYER_METRICS, layer_unit  # noqa: E402


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    assert proc.returncode == 0, f"{workload} trace={trace} failed:\n{proc.stderr[-3000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["per_layer"]] == LAYER_METRICS, "per_layer list out of date"
    for m in spec["per_layer"]:
        assert m["unit"] == layer_unit(m["name"]), m
    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            res = run(w["name"], trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            assert set(res["metrics"]) == {m["name"] for m in wanted}, sorted(res["metrics"])
            for m in wanted:
                got = res["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (m["name"], got)
                assert isinstance(got["value"], (int, float)), (m["name"], got)
                assert trace or got["value"] > 0, (m["name"], got)
            print(f"ok {w['name']} trace={trace}: {len(wanted)} metrics, "
                  f"{res['attempted']} operations checked", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
