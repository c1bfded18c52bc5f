"""An in-memory span recorder installed from outside the program.

(Not named ``trace.py``: this directory is on ``sys.path`` when ``run.py``
or pytest runs, and a module of that name would shadow the standard
library's ``trace``.)

The program under test has no tracing of its own yet (ROADMAP item 1), so
layer boundaries are observed by wrapping each layer's entry points:

* a **method** is wrapped on its class;
* a **module function** is wrapped by rebinding the name in *every loaded
  module that holds the original object* — ``from repro.tilt.frame import
  bulk_insert`` copies the function into the importer's namespace, and a
  wrapper installed only on ``repro.tilt.frame`` would never see those
  calls.

A span records name, start, end, parent and the request it belongs to.
The current-span stack is thread-local; work handed to a
``ThreadPoolExecutor`` inherits the submitter's current span as its parent
(the shard fan-out runs on pool threads).  A span's **self time** is its
duration minus the part of it covered by its children — the union of their
intervals, so children that overlap in time are not subtracted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = ["Span", "Tracer", "self_times"]

Count = Callable[[tuple, dict, Any], int]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "count")

    def __init__(self, span_id: int, name: str, parent: int | None, request: int) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.request = request
        self.count = 0
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "request": self.request, "count": self.count,
        }


class Tracer:
    """Wraps callables, records spans while :attr:`active`, and restores
    every patched name on :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        #: Set by the replay driver before each step; spans on threads the
        #: driver does not own (the dispatcher) read it when they open.
        self.request = 0
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []
        self._ids = iter(range(1, sys.maxsize))
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            span = Span(next(self._ids), name, stack[-1] if stack else None, self.request)
            self.spans.append(span)
        stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span | None]:
        """Record the enclosed block as a span (no-op while inactive)."""
        if not self.active:
            yield None
            return
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn: Callable, name: str, count: Count | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.count = count(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def wrap_method(self, cls: type, attr: str, name: str, count: Count | None = None) -> None:
        """Wrap ``cls.attr`` in place (plain, class- and static methods)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(self._wrap(raw.__func__, name, count))
        else:
            wrapped = self._wrap(raw, name, count)
        setattr(cls, attr, wrapped)
        self._undo.append(lambda: setattr(cls, attr, raw))

    def wrap_function(self, module: Any, attr: str, name: str, count: Count | None = None) -> int:
        """Wrap ``module.attr`` and rebind it in every loaded module whose
        namespace holds the original object; returns how many bindings
        were replaced."""
        original = getattr(module, attr)
        wrapped = self._wrap(original, name, count)
        rebound = 0
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if namespace is None:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapped
                    self._undo.append(
                        lambda ns=namespace, key=key: ns.__setitem__(key, original)
                    )
                    rebound += 1
        return rebound

    def propagate_through_executors(self) -> None:
        """Make a task submitted to any ``ThreadPoolExecutor`` run with the
        submitter's current span as its parent."""
        original = ThreadPoolExecutor.submit
        tracer = self

        def submit(pool: ThreadPoolExecutor, fn: Callable, /, *args: Any, **kwargs: Any):
            stack = tracer._stack() if tracer.active else None
            if not stack:
                return original(pool, fn, *args, **kwargs)
            parent = stack[-1]

            def task() -> Any:
                inherited = tracer._stack()
                inherited.append(parent)
                try:
                    return fn(*args, **kwargs)
                finally:
                    inherited.pop()

            return original(pool, task)

        ThreadPoolExecutor.submit = submit  # type: ignore[method-assign]
        self._undo.append(lambda: setattr(ThreadPoolExecutor, "submit", original))

    def uninstall(self) -> None:
        self.active = False
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def dump_jsonl(self, path: Path) -> None:
        """One span per line, with its self time, in start order."""
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s.start):
                row = span.to_dict()
                row["self"] = selfs[span.id]
                out.write(json.dumps(row) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """``span id -> duration - union(children's intervals)``."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.id] = span.duration - covered
    return out
