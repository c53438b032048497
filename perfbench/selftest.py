"""Self-test of the benchmark harness at toy sizes.

    python3 perfbench/selftest.py

Runs every workload untraced and traced at toy size (2x2 torus, grades
n <= 4, projectors k <= 4, 300 sweeps) with two seeds and checks that

* every end-to-end and per-layer metric of BENCHMARK.json is printed by
  name with its unit and appears in the last output line;
* every per-layer metric family is produced by some workload (names
  that end in a size tag such as ``l2n5`` or ``k7`` are matched on the
  part before the tag);
* every check passes, and a deliberately wrong expected value, or a call
  that raises, is counted as a failed check and makes the exit status
  non-zero;
* in a directory holding only BENCHMARK.json and perfbench/, run.py
  exits non-zero without printing a result.

Exits non-zero, listing what went wrong, if any of that fails.
"""

import io
import json
import os
import re
import shutil
import subprocess
import sys

import run
from harness import Checks

SIZE_TAG = re.compile(r"\.(l\d+n\d+|k\d+|l\d+)$")


def _run(bench, env, workload, seed, traced, expected=None):
    setups, iterations = run.measure(workload, seed, 0.0, traced,
                                     size="toy", expected=expected)
    out = io.StringIO()
    status = run.report(bench, workload, seed, int(traced), setups,
                        iterations, env, out=out)
    lines = out.getvalue().splitlines()
    return status, lines, json.loads(lines[-1]), iterations


def check_metrics(bench, errors):
    env = run.environment()
    produced = set()
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in (3, 4):
            for traced, kind in ((False, "end_to_end"), (True, "per_layer")):
                status, lines, result, iterations = _run(
                    bench, env, workload, seed, traced)
                tag = "%s seed %d trace %d" % (workload, seed, traced)
                if status != 0 or result["failed"]:
                    errors.append("%s: %d failed checks: %s" % (
                        tag, result["failed"],
                        [ln for ln in lines if ln.startswith("FAILED")]))
                if set(result) != {"correct", "attempted", "failed",
                                   "metrics"}:
                    errors.append("%s: result keys %s" % (tag, sorted(result)))
                for m in bench[kind]:
                    got = result["metrics"].get(m["name"])
                    if got is None or got["unit"] != m["unit"]:
                        errors.append("%s: %s missing or wrong unit (%r)"
                                      % (tag, m["name"], got))
                    pat = re.compile(r"^metric %s +\S+ %s$" % (
                        re.escape(m["name"]), re.escape(m["unit"])))
                    if not any(pat.match(ln) for ln in lines):
                        errors.append("%s: %s not printed with its unit"
                                      % (tag, m["name"]))
                if not any(ln.startswith("metric fail_ratio") for ln in lines):
                    errors.append("%s: fail_ratio not printed" % tag)
                for it in iterations:
                    produced.update(it.get("metrics", {}))
    produced.add("trace.overhead_s")
    for m in bench["per_layer"]:
        family = SIZE_TAG.sub("", m["name"])
        if not any(SIZE_TAG.sub("", name) == family for name in produced):
            errors.append("per-layer metric %s is produced by no workload"
                          % m["name"])


def check_failures_counted(bench, errors):
    env = run.environment()
    status, lines, result, _ = _run(bench, env, "torus-kernel", 3, False,
                                    expected={"kernel_dim.hprime": 11})
    if not (status != 0 and result["failed"] == 1 and not result["correct"]
            and any("kernel_dim.hprime" in ln for ln in lines
                    if ln.startswith("FAILED"))):
        errors.append("a wrong expected value was not counted: %r" % result)
    ratio = [ln for ln in lines if ln.startswith("metric fail_ratio")]
    if not ratio or float(ratio[0].split()[2]) <= 0:
        errors.append("fail_ratio did not count the failed check: %r" % ratio)
    chk = Checks({})
    with chk.stage("raising call"):
        raise ValueError("boom")
    if (chk.attempted, len(chk.failures)) != (1, 1):
        errors.append("an exception was not counted as a failed check")


def check_bare_directory(errors):
    bare = os.path.join(run.HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "tl-jw",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        errors.append("run.py without src/looptl exited %d printing %r"
                      % (proc.returncode, proc.stdout[-200:]))


def main():
    bench = run.load_benchmark()
    errors = []
    check_metrics(bench, errors)
    check_failures_counted(bench, errors)
    check_bare_directory(errors)
    for err in errors:
        print("SELFTEST FAILED " + err)
    print("selftest %s: %d problems" % ("failed" if errors else "ok",
                                         len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
