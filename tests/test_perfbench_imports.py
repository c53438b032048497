"""The benchmark's workload module runs against the current package.

perfbench/workloads.py imports names from looptl at module level and
calls them in each workload; a name that is deleted or moved, or a call
whose signature changed, fails here rather than in every benchmark
operation.
"""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
NAMES = {"tl-jw", "tl-ideal", "torus-kernel", "fk-gas"}


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("workloads")


def test_perfbench_workloads_import(monkeypatch):
    workloads = _workloads(monkeypatch)
    assert set(workloads.WORKLOADS) == NAMES
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} == NAMES


@pytest.mark.parametrize("name", sorted(NAMES))
def test_perfbench_workload_runs_at_toy_size(monkeypatch, name):
    workloads = _workloads(monkeypatch)
    harness = importlib.import_module("harness")
    params = workloads.PARAMS["toy"][name]
    setup, run = workloads.WORKLOADS[name]
    checks = harness.Checks(workloads.EXPECTED["toy"])
    run(setup(params, 1), params, harness.NullTracer(), checks)
    assert checks.attempted > 0
    assert checks.failures == []
