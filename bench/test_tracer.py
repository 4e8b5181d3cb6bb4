"""Tests for the span tracer: self-time arithmetic and rebinding."""
import itertools
import types

import pytest

from tracer import Span, Tracer, instrumented


def _tick_tracer() -> Tracer:
    """A tracer whose clock advances by one on every reading."""
    return Tracer(clock=itertools.count().__next__)


def test_self_time_of_nested_span_tree():
    tracer = _tick_tracer()
    leaf = tracer.wrap(lambda: None, "leaf")

    def inner_body():
        leaf()

    inner = tracer.wrap(inner_body, "inner")

    def outer_body():
        inner()
        inner()

    tracer.wrap(outer_body, "outer")()

    # outer [0, 9] > inner [1, 4] > leaf [2, 3]; inner [5, 8] > leaf [6, 7]
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0, 9, None), ("inner", 1, 4, 0), ("leaf", 2, 3, 1),
        ("inner", 5, 8, 0), ("leaf", 6, 7, 3)]
    assert tracer.self_times() == {"outer": 3, "inner": 4, "leaf": 2}
    assert tracer.calls() == {"outer": 1, "inner": 2, "leaf": 2}
    assert sum(tracer.self_times().values()) == 9  # partitions the root
    assert tracer.durations("inner") == [3, 3]


def test_overlapping_children_are_covered_once():
    tracer = Tracer()
    tracer.spans = [Span("root", 0.0, 10.0, None),
                    Span("a", 1.0, 5.0, 0),
                    Span("b", 3.0, 7.0, 0),     # overlaps a by 2
                    Span("c", 9.0, 12.0, 0)]    # runs past root's end
    self_times = tracer.self_times()
    assert self_times["root"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert self_times["a"] == 4.0 and self_times["c"] == 3.0


def test_instrumented_traces_every_binding_and_restores_them():
    def original(x):
        return 2 * x

    home = types.ModuleType("home")
    user = types.ModuleType("user")
    home.func = original
    user.func = original          # imported under the same name
    user.alias = original         # and under another
    user.unrelated = len
    tracer = Tracer()

    def counting(fn, args, kwargs, counters):
        counters["seen"] += 1
        return fn(*args, **kwargs)

    with instrumented(tracer, [home, user], {"home.func": original},
                      {"home.func": counting}):
        assert home.func is not original
        assert user.func is home.func and user.alias is home.func
        assert home.func(1) + user.func(2) + user.alias(3) == 12
    assert tracer.calls() == {"home.func": 3}
    assert tracer.counters["seen"] == 3
    assert home.func is original
    assert user.func is original and user.alias is original
    assert user.unrelated is len


def test_bindings_restored_when_the_body_or_setup_fails():
    def first():
        pass

    def missing():
        pass

    module = types.ModuleType("module")
    module.first = first
    with pytest.raises(RuntimeError):
        with instrumented(Tracer(), [module], {"module.first": first}):
            raise RuntimeError("traced code failed")
    assert module.first is first

    with pytest.raises(LookupError):
        with instrumented(Tracer(), [module], {"module.first": first,
                                               "module.missing": missing}):
            pass
    assert module.first is first
