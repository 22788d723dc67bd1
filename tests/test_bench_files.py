"""The committed benchmark records: every BENCH_*.json at the repository root parses and names only what BENCHMARK.json lists."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_at_least_one_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_a_record_names_only_listed_workloads_and_metrics(path):
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    # an untraced run reports the end-to-end metrics, a traced one (--trace 1) the per-layer ones
    metrics = {0: {m["name"] for m in BENCHMARK["end_to_end"]}, 1: {m["name"] for m in BENCHMARK["per_layer"]}}
    runs = json.loads(path.read_text())["runs"]
    assert runs
    for run in runs:
        assert run["side"] in ("parent", "change")
        assert run["workload"] in workloads
        assert isinstance(run["seed"], int) and run["seconds"] > 0 and run["cores_used"] > 0
        result = run["result"]
        assert result["metrics"] and set(result["metrics"]) <= metrics[run["trace"]]
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
        assert 0 <= result["failed"] <= result["attempted"] and result["correct"] == (result["failed"] == 0)
