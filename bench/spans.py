"""In-memory span recording around the public functions of formation_forge.

Modules of the package import each other's functions by name
(``from .dynamics import eval_F_x``), so a call from ``equilibria`` goes
through ``equilibria.eval_F_x``, not ``dynamics.eval_F_x``. Wrapping a
function therefore rebinds every module-level name, in every module of the
package, that refers to the same function object. Uninstalling restores
the originals, so untraced runs execute the unmodified program.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "formation_forge"

# Left unwrapped so that run_scenario's self time keeps report formatting,
# as the cli layer metric defines it; main only parses arguments.
UNWRAPPED = frozenset({"emit_report", "main"})


def package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def public_functions():
    """Map each public function defined in a package module to its name."""
    found = {}
    for module in package_modules():
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
                and name not in UNWRAPPED
            ):
                found[obj] = name
    names = list(found.values())
    if len(names) != len(set(names)):
        raise RuntimeError("two public functions share a name; spans would merge them")
    return found


class SpanRecorder:
    """Records ``(name, start, end, parent)`` for every wrapped call.

    ``parent`` is the index of the enclosing span in ``spans``, or -1. Use
    as a context manager: the wrappers are bound on entry and the original
    functions restored on exit.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._rebound = []

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return wrapper

    def __enter__(self):
        wrappers = {fn: self._wrap(fn, name) for fn, name in public_functions().items()}
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._rebound.append((module, attr, value))
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()
        return False


def function_totals(spans):
    """Per function name: ``[calls, inclusive seconds, self seconds]``.

    Self time is a span's duration minus the time its child spans cover.
    The program is single-threaded, so a span's direct children run one
    after another and the time they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = {}
    for (name, start, end, _), child in zip(spans, covered):
        entry = totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child
    return totals


def calls_under(spans, name, ancestor):
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    under = [False] * len(spans)
    count = 0
    for i, (span_name, _, _, parent) in enumerate(spans):
        if parent >= 0:
            under[i] = under[parent] or spans[parent][0] == ancestor
        if under[i] and span_name == name:
            count += 1
    return count
