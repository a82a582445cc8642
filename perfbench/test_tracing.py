"""Tests of the trace arithmetic and of the closed-form output checks.

Run with ``python3 -m pytest perfbench``.
"""

import sys
import types

import pytest

from checks import OCTAGON, hausdorff_convex, hausdorff_intervals
from layers import summarize
from tracing import Tracer


class StepClock:
    """Deterministic clock: every reading advances time by one unit."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def fake_package():
    """``fakepkg.a`` defines ``leaf`` and ``outer``; ``fakepkg.b`` imports
    ``leaf`` by name, as ``selfsim.cli`` imports from ``selfsim.measures``."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def leaf(x):
        return x + 1

    def outer(x):
        return a.leaf(a.leaf(x))

    def recurse(n):
        return 0 if n == 0 else 1 + a.recurse(n - 1)

    a.leaf, a.outer, a.recurse = leaf, outer, recurse
    b.leaf = leaf
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield a, b
    for name in mods:
        del sys.modules[name]


def test_self_times_of_nested_spans_sum_to_the_parent_duration(fake_package):
    a, _ = fake_package
    tracer = Tracer(clock=StepClock())
    for name in ("leaf", "outer"):
        tracer.install("fakepkg.a", name, package="fakepkg")
    assert a.outer(1) == 3
    outer, first, second = tracer.spans
    assert [s.name for s in tracer.spans] == ["a.outer", "a.leaf", "a.leaf"]
    assert first.parent == second.parent == 0 and outer.parent is None
    self_times = tracer.self_times()
    assert self_times[1] == first.duration and self_times[2] == second.duration
    assert self_times[0] == outer.duration - first.duration - second.duration
    assert sum(self_times) == outer.duration


def test_recursive_spans_nest_and_are_not_counted_twice(fake_package):
    a, _ = fake_package
    tracer = Tracer(clock=StepClock())
    tracer.install("fakepkg.a", "recurse", package="fakepkg")
    assert a.recurse(3) == 3
    assert len(tracer.spans) == 4
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 2]
    assert sum(tracer.self_times()) == tracer.spans[0].duration
    assert tracer.descendants_named(0, "a.recurse") == 3
    assert tracer.descendants_named(0, "a.recurse", direct=True) == 1


def test_function_rebound_in_two_modules_is_counted_once_per_call(fake_package):
    a, b = fake_package
    tracer = Tracer(clock=StepClock())
    assert tracer.install("fakepkg.a", "leaf", package="fakepkg") == 2
    assert a.leaf is b.leaf
    # installing again wraps nothing twice
    assert tracer.install("fakepkg.a", "leaf", package="fakepkg") == 0
    a.leaf(0)
    b.leaf(0)
    b.leaf(0)
    assert len(tracer.spans) == 3
    assert all(s.parent is None for s in tracer.spans)


def test_layer_summary_takes_group_time_from_self_times():
    tracer = Tracer(clock=StepClock())
    write_csv = tracer.wrap("cli._write_csv", lambda: None)
    write_grid = tracer.wrap("cli._write_grid", lambda: write_csv())
    convolve = tracer.wrap("measures.convolve_grids", lambda: None)
    solve = tracer.wrap("measures.solve_density", lambda: [convolve() for _ in range(4)])
    solve()
    write_grid()
    summary = summarize(tracer)
    assert summary["measures.solve_iters"] == 4
    assert summary["measures.convolve_calls"] == 4
    solve_span, grid_span = (s for s in tracer.spans if s.parent is None)
    assert summary["measures.solve_s"] + summary["measures.convolve_s"] == solve_span.duration
    # _write_grid calling _write_csv is one layer: its time is counted once
    assert summary["cli.write_s"] == grid_span.duration


def test_hausdorff_of_interval_unions():
    assert hausdorff_intervals([(0.0, 1.0)], [(0.0, 1.0)]) == 0.0
    assert hausdorff_intervals([(0.0, 1.0)], [(0.0, 1.5)]) == 0.5
    # the gap midpoint of the second union is the farthest point of the first
    assert hausdorff_intervals([(0.0, 4.0)], [(0.0, 1.0), (3.0, 4.0)]) == 1.0


def test_hausdorff_of_convex_polygons():
    assert hausdorff_convex(OCTAGON, OCTAGON[::-1]) == 0.0
    shifted = [(x + 1e-6, y) for x, y in OCTAGON]
    assert hausdorff_convex(OCTAGON, shifted) == pytest.approx(1e-6, rel=1e-6)
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    smaller = [(0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (0.0, 0.5)]
    assert hausdorff_convex(square, smaller) == 0.5
