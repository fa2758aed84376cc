"""Span tracer that wraps functions of an imported package by module attribute.

A traced function is replaced, for the lifetime of a ``Tracer`` context,
by a wrapper in every module of the package that binds it (``from .x
import f`` creates one binding per importing module, and callers look
the name up in their own module).  For a class, its ``__init__`` is
wrapped instead, so ``isinstance`` keeps working.

Each thread keeps its own span stack, so spans opened in pool threads
nest under their own callers.  Per span the wrapper records wall time
(``time.perf_counter``) and the thread's CPU time (``time.thread_time``);
a span's self time is its duration minus the durations of the child
spans it opened.  Leaving the context restores every original binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field

_perf = time.perf_counter
_cpu = time.thread_time


@dataclass
class SpanStats:
    """Totals for one span name; times in seconds."""

    calls: int = 0
    total_s: float = 0.0  # wall time including child spans
    self_s: float = 0.0  # wall time excluding child spans
    total_busy_s: float = 0.0  # thread CPU time including child spans
    busy_s: float = 0.0  # thread CPU time excluding child spans

    @property
    def wait_s(self) -> float:
        """Own wall time the thread spent off the CPU (GIL, I/O, preemption)."""
        return self.self_s - self.busy_s

    def add(self, other: "SpanStats") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.total_busy_s += other.total_busy_s
        self.busy_s += other.busy_s


@dataclass
class _Table:
    spans: dict = field(default_factory=dict)  # name -> SpanStats
    edges: dict = field(default_factory=dict)  # (parent or None, child) -> [calls, wall, cpu]
    counters: dict = field(default_factory=dict)  # name -> int


@dataclass
class Summary:
    """Merged tables of every thread that ran traced code."""

    spans: dict
    edges: dict
    counters: dict

    def stats(self, name: str) -> SpanStats:
        return self.spans.get(name, SpanStats())

    def edge_calls(self, parent: str | None, child: str) -> int:
        return self.edges.get((parent, child), [0, 0.0, 0.0])[0]


class Tracer:
    """Context manager that installs span wrappers and removes them on exit.

    ``targets`` is a list of ``(span_name, module_name, attribute, count)``;
    ``count`` is None or ``(counter_name, fn)`` where ``fn(arguments,
    result)`` returns an int added to the counter after each call, with
    ``arguments`` the call's bound arguments by parameter name.
    """

    def __init__(self, package: str, targets):
        self._package = package
        self._targets = targets
        self._patches = []  # (owner, attribute, original)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for span_name, module_name, attribute, count in self._targets:
                self._install(span_name, sys.modules[module_name], attribute, count)
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _install(self, span_name, module, attribute, count) -> None:
        original = getattr(module, attribute)
        if inspect.isclass(original):
            init = original.__dict__["__init__"]
            self._patch(original, "__init__", self._wrap(span_name, init, count))
            return
        wrapper = self._wrap(span_name, original, count)
        prefix = self._package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self._package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attribute, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- recording --------------------------------------------------------------

    def _thread_state(self):
        state = self._local.__dict__
        if "stack" not in state:
            table = _Table()
            with self._lock:
                self._tables.append(table)
            state["stack"] = []
            state["table"] = table
        return state["stack"], state["table"]

    def _wrap(self, span_name, fn, count):
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, table = self._thread_state()
            frame = [0.0, 0.0, span_name]  # child wall, child CPU, name
            stack.append(frame)
            # same clock order at both ends, so both intervals have equal length
            w0 = _perf()
            c0 = _cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                w1 = _perf()
                c1 = _cpu()
                stack.pop()
                wall, cpu = w1 - w0, c1 - c0
                stats = table.spans.get(span_name)
                if stats is None:
                    stats = table.spans[span_name] = SpanStats()
                stats.calls += 1
                stats.total_s += wall
                stats.self_s += wall - frame[0]
                stats.total_busy_s += cpu
                stats.busy_s += cpu - frame[1]
                parent = stack[-1] if stack else None
                edge = table.edges.setdefault((parent and parent[2], span_name), [0, 0.0, 0.0])
                edge[0] += 1
                edge[1] += wall
                edge[2] += cpu
                if parent:
                    parent[0] += wall
                    parent[1] += cpu
            if count:
                counter, fn_count = count
                arguments = signature.bind(*args, **kwargs).arguments
                table.counters[counter] = table.counters.get(counter, 0) + fn_count(arguments, result)
            return result

        return wrapper

    # -- results ----------------------------------------------------------------

    def summary(self) -> Summary:
        spans, edges, counters = {}, {}, {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, stats in table.spans.items():
                spans.setdefault(name, SpanStats()).add(stats)
            for key, (calls, wall, cpu) in table.edges.items():
                edge = edges.setdefault(key, [0, 0.0, 0.0])
                edge[0] += calls
                edge[1] += wall
                edge[2] += cpu
            for name, value in table.counters.items():
                counters[name] = counters.get(name, 0) + value
        return Summary(spans, edges, counters)
