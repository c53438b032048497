"""Span recorder and check counter shared by the benchmark's workloads.

Spans are taken around the benchmark's own calls into ``looptl``; nothing
inside the package is instrumented.  They stay in memory and are handed
to the parent process when the child exits.
"""

import time
from contextlib import contextmanager


class _Span:
    __slots__ = ("tracer", "name", "metric")

    def __init__(self, tracer, name, metric):
        self.tracer = tracer
        self.name = name
        self.metric = metric

    def __enter__(self):
        tr = self.tracer
        parent = tr._open[-1][0] if tr._open else None
        rec = [len(tr.spans), parent, self.name, self.metric,
               time.perf_counter_ns(), None]
        tr.spans.append(rec)
        tr._open.append(rec)
        return rec

    def __exit__(self, *exc):
        self.tracer._open.pop()[5] = time.perf_counter_ns()
        return False


class Tracer:
    """Records spans ``[id, parent, name, metric, start_ns, end_ns]`` of
    one run id, plus named counts measured at the same boundaries."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = {}
        self._open = []

    def span(self, name, metric=None):
        return _Span(self, name, metric)

    def call(self, name, metric, fn, *args, **kwargs):
        with _Span(self, name, metric):
            return fn(*args, **kwargs)

    def count(self, metric, value):
        self.counts[metric] = value

    def self_seconds(self):
        """Self time per metric: each span's duration minus the part of
        it covered by its child spans, summed over spans of one metric."""
        child_ns = [0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out = {}
        for sid, _, _, metric, start, end in self.spans:
            if metric is not None:
                out[metric] = out.get(metric, 0.0) + \
                    (end - start - child_ns[sid]) / 1e9
        return out


class _NoSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracing off: the same interface, recording nothing."""

    _nospan = _NoSpan()

    def span(self, name, metric=None):
        return self._nospan

    def call(self, name, metric, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, metric, value):
        pass


class Checks:
    """Checks attempted and failed against a table of expected values.

    An exception escaping a ``stage`` block counts as one failed check,
    and the workload carries on with its next stage.
    """

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failures = []

    def expect(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append("%s: %s" % (name, detail or "false"))
        return ok

    def pinned(self, key, got):
        want = self.expected[key]
        return self.expect(key, got == want, "got %r, want %r" % (got, want))

    @contextmanager
    def stage(self, name):
        try:
            yield
        except Exception as exc:  # a crashing call is a failed check
            self.attempted += 1
            self.failures.append("%s raised %s: %s"
                                 % (name, type(exc).__name__, exc))
