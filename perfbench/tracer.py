"""In-memory span recorder that wraps the public functions of fedsvd modules.

Each call of a wrapped function records one span: name, start, end and the
index of the enclosing span. Spans stay in memory and are summarised once,
after the traced repetition ends. A span's self time is its duration minus
the time covered by its child spans; the program is single-threaded here
(``threads = 1``), so children never overlap.

Patching happens at every name a caller looks up. A function imported by
name into another module (``model`` does ``from .lora import
effective_weight``) is wrapped again under that module's name, so the span
says which module made the call. Module-level dicts that hold functions
(``verify._SUITES``) get the wrapper too. Calls by bare name inside a module
resolve through the module's globals, so patching the module attribute
reaches them.
"""

from __future__ import annotations

import functools
import time
import types


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Return `fn` recording a span per call.

        `count`, if given, is (counter name, f(args, kwargs) -> number); the
        number is added to that counter on every call.
        """
        spans, stack, clock, counters = self.spans, self._stack, time.perf_counter, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                key, measure = count
                counters[key] = counters.get(key, 0) + measure(args, kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> {"calls", "busy_s", "self_s"} over all recorded spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), child_time in zip(self.spans, covered):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += (end - start) - child_time
        return out

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Number of `child_name` spans whose direct parent is a `parent_name` span."""
        spans = self.spans
        return sum(
            1 for name, _, _, parent in spans
            if name == child_name and parent >= 0 and spans[parent][0] == parent_name
        )


def instrument(recorder: SpanRecorder, modules, counts=None) -> None:
    """Wrap every public fedsvd function reachable from `modules`' namespaces.

    Span names are ``<module>.<function>`` with the short module name of the
    namespace holding the reference. `counts` maps a span name to the
    `count` argument of `SpanRecorder.wrap`.
    """
    counts = counts or {}
    wrapped: dict[tuple[str, int], object] = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not _is_package_function(obj):
                continue
            name = f"{short}.{attr}"
            wrapper = recorder.wrap(name, obj, counts.get(name))
            setattr(mod, attr, wrapper)
            wrapped[(mod.__name__, id(obj))] = wrapper
    for mod in modules:
        for value in vars(mod).values():
            if not isinstance(value, dict):
                continue
            for key, obj in list(value.items()):
                wrapper = wrapped.get((mod.__name__, id(obj)))
                if wrapper is not None:
                    value[key] = wrapper


def _is_package_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) and obj.__module__.startswith("fedsvd.")
