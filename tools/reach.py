"""Opt-in pytest plugin: the executable lines of src/looptl that no test
reaches.  Run from the root of a checkout:

    PYTHONPATH=src:tools python -m pytest -q -p reach

It traces every thread with sys.settrace and threading.settrace from
pytest_configure on, so module bodies count too, and keeps the line
events of the package's own files.  A file's executable lines are the
lines of every code object compiled from it (co_lines).  The summary
prints the unreached lines per module and their total.  The line tracer
slows the suite several times over, so the pinned wall-clock budgets
may fail under it.  The file lives outside tests/, so the suite never
collects or loads it unless asked to.
"""

import os
import sys
import threading

_PACKAGE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "looptl") + os.sep
_reached = {}


def _local(frame, event, arg):
    if event == "line":
        _reached[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_PACKAGE):
        return None
    _reached.setdefault(name, set()).add(frame.f_code.co_firstlineno)
    return _local


def _executable(path):
    with open(path) as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _ranges(lines):
    out, lines = [], sorted(lines)
    for k, line in enumerate(lines):
        if k and line == lines[k - 1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in out)


def pytest_configure(config):
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    write = terminalreporter.write_line
    total = missed = 0
    for name in sorted(os.listdir(_PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = _PACKAGE + name
        lines = _executable(path)
        unreached = lines - _reached.get(path, set())
        total += len(lines)
        missed += len(unreached)
        if unreached:
            write("%s: %s" % (name, _ranges(unreached)))
    write("looptl line reach: %d of %d executable lines reached, %d "
          "unreached" % (total - missed, total, missed))
