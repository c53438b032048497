"""One benchmark iteration, run by run.py in a fresh interpreter.

    python3 perfbench/child.py SPEC

SPEC is a JSON object with keys ``workload``, ``seed``, ``size``,
``mode`` ("setup" stops once the inputs are built, "run" also runs the
workload), ``traced``, ``launch_ns`` (the parent's ``time.monotonic_ns()``
just before it started this process), ``src`` (the directory holding the
``looptl`` package), ``run_id`` and ``expected`` (overrides of expected
values, used by the self-test).  The child prints one JSON object.

Its ``setup_s`` and ``wall_s`` are net of the calibration samples of
``speed.py`` and scaled to the reference speed; ``raw_setup_s`` and
``raw_wall_s`` are the times as measured.  Traced metrics are left as
measured, with the speed factor of the iteration next to them.
"""

import json
import os
import resource
import sys
import time

from speed import EXPLICIT, Sampler


def _scaled(raw_s, speed):
    return (raw_s - speed["sampled_s"]) * speed["factor"]


def main():
    sampler = Sampler()
    sampler.start()
    spec = json.loads(sys.argv[1])
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import looptl
    if not os.path.abspath(looptl.__file__).startswith(src + os.sep):
        raise SystemExit("looptl imported from %s, not from %s"
                         % (looptl.__file__, src))
    import workloads
    from harness import Checks, NullTracer, Tracer

    name, seed = spec["workload"], spec["seed"]
    params = workloads.PARAMS[spec["size"]][name]
    setup, run = workloads.WORKLOADS[name]
    inputs = setup(params, seed)
    sampler.sample(EXPLICIT)
    t_setup = time.monotonic_ns()
    setup_speed = sampler.speed()
    raw_setup_s = (t_setup - spec["launch_ns"]) / 1e9
    out = {"setup_s": _scaled(raw_setup_s, setup_speed),
           "raw_setup_s": raw_setup_s, "setup_speed": setup_speed}
    if spec["mode"] == "setup":
        sampler.stop()
        print(json.dumps(out))
        return

    chk = Checks(dict(workloads.EXPECTED[spec["size"]], **spec["expected"]))
    tr = Tracer(spec["run_id"]) if spec["traced"] else NullTracer()
    with tr.span("workload." + name):
        extras = run(inputs, params, tr, chk)
    t_done = time.monotonic_ns()
    sampler.stop()
    speed = sampler.speed()
    raw_wall_s = (t_done - spec["launch_ns"]) / 1e9
    out.update(
        wall_s=_scaled(raw_wall_s, speed), raw_wall_s=raw_wall_s,
        speed=speed,
        # ru_maxrss is in KiB on Linux
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        attempted=chk.attempted, failures=chk.failures, extras=extras)
    if spec["traced"]:
        metrics = tr.self_seconds()
        metrics.update(tr.counts)
        metrics.update(workloads.run_probes(seed, tr))
        out.update(metrics=metrics, spans=tr.spans, run_id=tr.run_id)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
