"""Benchmark-side tracing: spans around calls into each layer's public functions.

Wrappers are installed only in a traced run.  Each wrapper is patched at
every ``repro.*`` module that binds the wrapped object (``from x import f``
copies the binding, so patching the defining module alone would miss the
callers), and methods are patched on their class.

Spans stay in memory, one list and one open-span stack per thread (server
jobs run on the executor thread, HTTP parsing on the event-loop thread).
A span is ``[name, start, end, parent, op, busy]``: ``parent`` indexes the
same thread's list (-1 for a root span), ``op`` is the ordinal of the root
span it belongs to, and ``busy`` is the time the code actually ran — equal
to ``end - start`` for a plain call, and the sum of the resumed steps for a
coroutine, so a read that waits for the client's next request is not
counted as busy.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder with per-thread stacks."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: dict[str, list] = {}

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            spans: list = []
            state = self._local.state = {"spans": spans, "stack": [], "ops": 0}
            name = threading.current_thread().name
            with self._lock:
                key = name
                suffix = 1
                while key in self._threads:
                    suffix += 1
                    key = f"{name}#{suffix}"
                self._threads[key] = spans
        return state

    def _open(self, name):
        state = self._state()
        stack = state["stack"]
        if stack:
            parent = stack[-1]
            op = state["spans"][parent][4]
        else:
            parent = -1
            op = state["ops"]
            state["ops"] += 1
        record = [name, _clock(), 0.0, parent, op, 0.0]
        spans = state["spans"]
        stack.append(len(spans))
        spans.append(record)
        return record, stack

    @staticmethod
    def _close(record, stack):
        record[2] = _clock()
        record[5] = record[2] - record[1]
        stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager recording one span (harness op roots use it)."""
        return _Span(self, name)

    def wrap(self, name: str, function, on_result=None):
        """A traced stand-in for ``function`` (sync or coroutine)."""
        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            def traced_coroutine(*args, **kwargs):
                return _TimedCoroutine(self, name, function(*args, **kwargs))

            return traced_coroutine

        @functools.wraps(function)
        def traced(*args, **kwargs):
            record, stack = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(record, stack)
            if on_result is not None:
                on_result(record, result)
            return result

        return traced

    def _record_async(self, name, start, busy):
        # Coroutines interleave on the loop thread, so they never sit on the
        # thread's stack; they are recorded as roots with their busy time.
        state = self._state()
        op = state["ops"]
        state["ops"] += 1
        state["spans"].append([name, start, _clock(), -1, op, busy])

    # -- analysis -----------------------------------------------------------

    def threads(self) -> dict[str, list]:
        with self._lock:
            return dict(self._threads)

    def summary(self) -> dict:
        """Per span name: call count, inclusive busy seconds, self seconds.

        Self time is a span's duration minus its direct children's.
        """
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for spans in self.threads().values():
            children = [0.0] * len(spans)
            for record in spans:
                if record[3] >= 0:
                    children[record[3]] += record[2] - record[1]
            for index, record in enumerate(spans):
                calls[record[0]] += 1
                inclusive[record[0]] += record[5]
                own[record[0]] += record[5] - children[index]
        return {
            name: {"calls": calls[name], "busy_s": inclusive[name], "self_s": own[name]}
            for name in calls
        }

    def dump(self, path: str) -> None:
        """Write every span, grouped by thread, as JSON."""
        payload = {
            "fields": ["name", "start", "end", "parent", "op", "busy"],
            "threads": self.threads(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


class _Span:
    __slots__ = ("tracer", "name", "record", "stack")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.record, self.stack = self.tracer._open(self.name)
        return self.record

    def __exit__(self, *exc):
        self.tracer._close(self.record, self.stack)
        return False


class _TimedCoroutine:
    """Drives a wrapped coroutine, timing only its resumed steps."""

    __slots__ = ("tracer", "name", "coro")

    def __init__(self, tracer: Tracer, name: str, coro):
        self.tracer = tracer
        self.name = name
        self.coro = coro

    def __await__(self):
        coro = self.coro
        busy = 0.0
        start = None
        send, error = None, None
        while True:
            step = _clock()
            if start is None:
                start = step
            try:
                yielded = coro.send(send) if error is None else coro.throw(error)
            except StopIteration as stop:
                self.tracer._record_async(self.name, start, busy + _clock() - step)
                return stop.value
            except BaseException:
                self.tracer._record_async(self.name, start, busy + _clock() - step)
                raise
            busy += _clock() - step
            try:
                send, error = (yield yielded), None
            except BaseException as raised:  # thrown into us: pass it on
                send, error = None, raised


def _patch_bindings(original, replacement) -> int:
    """Rebind ``original`` to ``replacement`` in every loaded repro module."""
    patched = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
                patched += 1
    return patched


def install(tracer: Tracer, functions=(), methods=()) -> None:
    """Patch module-level ``functions`` and class ``methods``.

    ``functions``: ``(span name, module, attribute[, on_result])``;
    ``methods``: ``(span name, class, attribute[, on_result])``.
    """
    for entry in functions:
        name, module, attribute = entry[:3]
        on_result = entry[3] if len(entry) > 3 else None
        original = getattr(module, attribute)
        if _patch_bindings(original, tracer.wrap(name, original, on_result)) == 0:
            raise RuntimeError(f"no binding of {module.__name__}.{attribute} found")
    for entry in methods:
        name, cls, attribute = entry[:3]
        on_result = entry[3] if len(entry) > 3 else None
        original = cls.__dict__[attribute]
        setattr(cls, attribute, tracer.wrap(name, original, on_result))
