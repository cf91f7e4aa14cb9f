"""The benchmark trajectory: every root BENCH_*.json is a complete record.

A record holds, for each workload that BENCHMARK.json declares, the `env`
line and the result line of `bench/run.py --seconds 20 --trace 0` at the
parent commit and at the change, so a reader can compare the two runs
without re-running them.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]], [m["name"] for m in spec["end_to_end"]]


def test_the_trajectory_has_started():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_is_complete(path):
    record = json.loads(path.read_text())
    workloads, metrics = declared()
    assert sorted(record["workloads"]) == sorted(workloads)
    for name in workloads:
        for side in ("parent", "change"):
            run = record["workloads"][name][side]
            assert isinstance(run["env"], dict) and run["env"]
            result = run["result"]
            assert result["correct"] is True
            values = {m: result["metrics"].get(m, {}).get("value") for m in metrics}
            missing = [m for m, v in values.items() if not isinstance(v, (int, float))]
            assert not missing, f"{path.name}: {name} {side} lacks {missing}"
