"""Tests of the span tracer: ``python3 -m pytest perfbench/test_spans.py``."""

from __future__ import annotations

import concurrent.futures
import math
import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.fixture
def package():
    """A package ``fakepkg`` whose ``user`` module imports ``leaf.inner`` by name."""
    leaf = types.ModuleType("fakepkg.leaf")

    def inner(x):
        _spin(0.002)
        time.sleep(0.001)  # off-CPU time shows up as wait
        return x + 1

    leaf.inner = inner

    class Problem:
        def __init__(self, size):
            self.size = size

    leaf.Problem = Problem

    user = types.ModuleType("fakepkg.user")
    user.inner = inner  # the binding ``from .leaf import inner`` creates

    def outer(x):
        _spin(0.001)
        return user.inner(x) + user.inner(x) + leaf.Problem(x).size

    user.outer = outer
    pkg = types.ModuleType("fakepkg")
    modules = {"fakepkg": pkg, "fakepkg.leaf": leaf, "fakepkg.user": user}
    sys.modules.update(modules)
    yield leaf, user
    for name in modules:
        del sys.modules[name]


TARGETS = [
    ("user.outer", "fakepkg.user", "outer", None),
    ("leaf.inner", "fakepkg.leaf", "inner", ("inner.calls", lambda arguments, result: 1)),
    ("leaf.Problem", "fakepkg.leaf", "Problem", None),
]


def test_self_time_plus_children_equals_span_total(package):
    _, user = package
    with Tracer("fakepkg", TARGETS) as tracer:
        user.outer(1)
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            assert list(pool.map(user.outer, range(8))) == [2 * (x + 1) + x for x in range(8)]
    summary = tracer.summary()

    for name, stats in summary.spans.items():
        children = [edge for (parent, _), edge in summary.edges.items() if parent == name]
        assert math.isclose(stats.total_s, stats.self_s + sum(e[1] for e in children), rel_tol=1e-9)
        assert math.isclose(stats.total_busy_s, stats.busy_s + sum(e[2] for e in children), rel_tol=1e-9)
        assert stats.self_s > 0.0
    roots = sum(edge[1] for (parent, _), edge in summary.edges.items() if parent is None)
    assert math.isclose(roots, sum(s.self_s for s in summary.spans.values()), rel_tol=1e-9)

    # every thread nested its own spans: outer is always a root, inner and
    # Problem always its children
    assert set(summary.edges) == {(None, "user.outer"), ("user.outer", "leaf.inner"), ("user.outer", "leaf.Problem")}
    assert summary.stats("user.outer").calls == 9
    assert summary.edge_calls("user.outer", "leaf.inner") == 18
    assert summary.counters["inner.calls"] == 18
    assert summary.stats("leaf.inner").wait_s > 0.0


def test_every_binding_is_restored(package):
    leaf, user = package
    inner, outer, init = leaf.inner, user.outer, leaf.Problem.__init__
    with Tracer("fakepkg", TARGETS):
        assert user.inner is leaf.inner is not inner
        assert leaf.Problem.__init__ is not init
    assert leaf.inner is inner and user.inner is inner and user.outer is outer
    assert leaf.Problem.__init__ is init


def test_wrappers_removed_when_the_traced_call_raises(package):
    leaf, user = package
    inner = leaf.inner
    with pytest.raises(TypeError):
        with Tracer("fakepkg", TARGETS):
            user.outer("not a number")
    assert user.inner is inner
