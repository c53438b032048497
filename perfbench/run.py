"""Benchmark of the looptl toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/looptl``; the package is
imported from there, nothing is installed.  Batch mode, closed loop, one
caller: every iteration runs in a fresh single-threaded interpreter
(BLAS threads pinned to 1), one after the other, until ``--seconds`` have
passed, so the in-process memo caches start cold as they do for each
``looptl`` command.  Before the iterations, a few extra interpreters only
build the inputs, so that ``setup_s`` is a median of several set-ups.

Every time is reported at the reference speed of ``speed.py``: the
measured process times a fixed calibration sample now and then, and its
times are scaled by how fast those samples ran, so that a host whose
speed changes from one second to the next moves the figures little.
The times as measured are printed too, as ``raw_wall_s`` and
``raw_setup_s``, with the median ``speed_factor``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` (medians
over the iterations).  ``--trace 1`` alternates untraced and traced
iterations and reports the per-layer metrics (medians over the traced
ones), with ``trace.overhead_s`` the traced minus the untraced median
``wall_s``; it prints the end-to-end metrics of its untraced iterations
too.  A per-layer metric of a call the workload does not make reads 0.
Every metric is printed by name with its unit; the last line of output
is one JSON object holding the metrics of the mode.  The exit status is non-zero when any
check fails.  The run record, with the environment and, when traced,
every span, is written to ``perfbench/out/``.
"""

import argparse
import glob
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 8
BLAS_THREADS = 1
# a run must end within 180 s: no new iteration starts if it would likely
# end past RUN_GUARD_S, and a child still running at RUN_LIMIT_S is killed
RUN_GUARD_S = 150.0
RUN_LIMIT_S = 175.0


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    lines = 0
    for path in sorted(glob.glob(os.path.join(SRC, "looptl", "*.py"))):
        with open(path, "rb") as fh:
            lines += fh.read().count(b"\n")
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "blas_threads": BLAS_THREADS, "git_commit": _git_commit(),
            "src_lines": lines}


def _child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_child(spec, timeout):
    """One fresh interpreter; returns its JSON report, or a report of
    one failed check when it crashed or ran out of time."""
    spec = dict(spec, src=SRC, launch_ns=time.monotonic_ns())
    cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=_child_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crashed": True, "attempted": 1,
                "failures": ["iteration exceeded %.0f s" % timeout]}
    if proc.returncode == 0:
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            pass
    tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
    return {"crashed": True, "attempted": 1,
            "failures": ["iteration exited %d: %s"
                         % (proc.returncode, " | ".join(tail))]}


def measure(workload, seed, seconds, traced, size="full", expected=None):
    """Run one workload for about ``seconds`` and collect every child's
    report: set-up-only children first, then measured iterations."""
    base = {"workload": workload, "seed": seed, "size": size,
            "expected": expected or {}}
    start = time.monotonic()

    def remaining():
        return max(5.0, RUN_LIMIT_S - (time.monotonic() - start))

    setups, iterations = [], []
    for _ in range(SETUP_SAMPLES):
        rep = run_child(dict(base, mode="setup", traced=False,
                             run_id=None), remaining())
        setups.append(rep)
        if rep.get("crashed"):
            return setups, iterations
    while True:
        now_traced = traced and len(iterations) % 2 == 1
        t0 = time.monotonic()
        rep = run_child(dict(base, mode="run", traced=now_traced,
                             run_id="%s-s%d-i%d" % (workload, seed,
                                                    len(iterations))),
                        remaining())
        last = time.monotonic() - t0
        rep["traced"] = now_traced
        iterations.append(rep)
        if rep.get("crashed"):
            break
        elapsed = time.monotonic() - start
        if traced and len(iterations) < 2:
            continue
        if elapsed >= seconds or elapsed + last > RUN_GUARD_S:
            break
    return setups, iterations


def _median(values):
    return statistics.median(values) if values else 0.0


def _at_reference_speed(value, unit, factor):
    """A figure measured at speed ``factor`` (see speed.py) scaled to the
    reference speed; counts and ratios are left alone."""
    if unit in ("s", "us"):
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


def summarize(bench, setups, iterations, traced):
    """The result object of the last output line, and every metric to
    print as (name, value, unit): the end-to-end ones from the untraced
    iterations, the per-layer ones when traced, and the sampler figures
    of ``fk-gas``, printed but not gated."""
    reports = setups + iterations
    attempted = max(sum(r.get("attempted", 0) for r in reports), 1)
    failures = [f for r in reports for f in r.get("failures", [])]
    done = [r for r in iterations if not r.get("crashed")]
    plain = [r for r in done if not r["traced"]]
    traced_runs = [r for r in done if r["traced"]]
    with_setup = [r for r in reports if "setup_s" in r]
    values = {
        "wall_s": _median([r["wall_s"] for r in plain]),
        "setup_s": _median([r["setup_s"] for r in with_setup]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
    }
    kinds = ["end_to_end"]
    if traced:
        kinds.append("per_layer")
        for m in bench["per_layer"]:
            values[m["name"]] = _median([
                _at_reference_speed(r["metrics"].get(m["name"], 0.0),
                                    m["unit"], r["speed"]["factor"])
                for r in traced_runs])
        values["trace.overhead_s"] = \
            _median([r["wall_s"] for r in traced_runs]) - values["wall_s"]
    printed = [(m["name"], values[m["name"]], m["unit"])
               for kind in kinds for m in bench[kind]]
    for key, unit in (("sweeps_per_s", "1/s"), ("tv_distance", "fraction"),
                      ("tv_bound", "fraction")):
        vals = [_at_reference_speed(r["extras"][key], unit,
                                    r["speed"]["factor"])
                for r in plain if key in r["extras"]]
        if vals:
            printed.append((key, _median(vals), unit))
    if plain:
        printed += [
            ("raw_wall_s", _median([r["raw_wall_s"] for r in plain]), "s"),
            ("speed_factor", _median([r["speed"]["factor"] for r in plain]),
             "ratio")]
    if with_setup:
        printed.append(("raw_setup_s", _median([r["raw_setup_s"]
                                                for r in with_setup]), "s"))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in bench[kinds[-1]]}
    result = {"correct": not failures and bool(done),
              "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, printed, failures, len(plain), len(traced_runs)


def report(bench, workload, seed, traced, setups, iterations, env,
           out=sys.stdout):
    """Print every metric by name and unit, write the run record, and
    return the exit status."""
    result, printed, failures, n_plain, n_traced = summarize(
        bench, setups, iterations, traced)
    print("env " + json.dumps(env, sort_keys=True), file=out)
    print("workload %s seed %d trace %d: %d untraced and %d traced "
          "iterations, %d set-ups" % (workload, seed, traced, n_plain,
                                      n_traced, len(setups) + n_plain
                                      + n_traced), file=out)
    for name, value, unit in printed:
        print("metric %-40s %.6g %s" % (name, value, unit), file=out)
    print("metric %-40s %.6g ratio (failed %d / attempted %d checks)"
          % ("fail_ratio", result["failed"] / result["attempted"],
             result["failed"], result["attempted"]), file=out)
    for failure in failures:
        print("FAILED " + failure, file=out)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    record = os.path.join(HERE, "out", "%s-seed%d-trace%d.json"
                          % (workload, seed, traced))
    with open(record, "w") as fh:
        json.dump({"env": env, "result": result, "setups": setups,
                   "iterations": iterations}, fh)
    print(json.dumps(result), file=out)
    return 0 if result["correct"] else 1


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "looptl", "__init__.py")):
        print("error: %s holds no looptl package; run from the root of a "
              "looptl checkout" % SRC, file=sys.stderr)
        return 2
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float,
                    default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    env = environment()
    setups, iterations = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    return report(bench, args.workload, args.seed, args.trace, setups,
                  iterations, env)


if __name__ == "__main__":
    sys.exit(main())
