"""Spans around calls into nonholo, recorded from outside the program.

A span is (id, name, start, end, parent, attributes), kept in memory and
written out when the run ends. Spans come from two places: the benchmark's
own calls (``Tracer.span``) and module attributes that the tracer replaces
with a timing wrapper for the duration of a traced pass (``Tracer.wrap``).
Untraced passes use ``NULL_TRACER``, whose spans do nothing.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class NullTracer:
    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        yield None


NULL_TRACER = NullTracer()


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start_ns": time.perf_counter_ns(), "end_ns": None,
                  "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end_ns"] = time.perf_counter_ns()

    def wrap(self, owner, attr: str, name: str, attrs_fn=None) -> None:
        """Time every call of ``owner.attr`` until :meth:`unwrap`.

        ``attrs_fn(args, kwargs, result)``, when given, returns attributes
        to store on the span after the call.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
            if attrs_fn is not None:
                record["attrs"].update(attrs_fn(args, kwargs, result))
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def seconds(self, name: str) -> float:
        return sum(s["end_ns"] - s["start_ns"] for s in self.named(name)) / 1e9

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


class Capture:
    """Remembers each trace the program writes, keyed by the CSV path.

    ``SimTrace.to_csv`` is the one place where the CLI hands a finished
    trace to its output layer, so holding the object there lets the checker
    compare the written file with the arrays behind it.
    """

    def __init__(self, trace_cls):
        self.traces: dict[str, object] = {}
        self._cls = trace_cls
        self._original = trace_cls.to_csv
        capture = self
        original = self._original

        @functools.wraps(original)
        def to_csv(trace, path, *args, **kwargs):
            capture.traces[str(path)] = trace
            return original(trace, path, *args, **kwargs)

        trace_cls.to_csv = to_csv

    def close(self) -> None:
        self._cls.to_csv = self._original
