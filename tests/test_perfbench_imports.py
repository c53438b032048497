"""The benchmark's workload module imports against the current package.

perfbench/workloads.py imports names from looptl at module level; a
name that is deleted or moved fails here rather than in every benchmark
operation.
"""

import importlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_workloads_import(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    names = {"tl-jw", "tl-ideal", "torus-kernel", "fk-gas"}
    assert set(workloads.WORKLOADS) == names
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} == names
