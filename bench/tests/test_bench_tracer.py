import sys
import types

import pytest

from tracer import Tracer, covered_length, self_times, span_totals


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == 4.0
    assert covered_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert covered_length([(1.0, 2.0), (4.0, 6.0)], 0.0, 10.0) == 3.0


def test_self_time_is_span_minus_covered_child_intervals():
    spans = [
        ["op", 0.0, 10.0, None],
        ["solve", 1.0, 4.0, 0],
        ["build", 1.5, 2.0, 1],
        ["solve", 5.0, 9.0, 0],
        ["op", 20.0, 21.0, None],
    ]
    own = self_times(spans)
    assert own["op"] == pytest.approx(10.0 - 7.0 + 1.0)
    assert own["solve"] == pytest.approx(3.0 - 0.5 + 4.0)
    assert own["build"] == pytest.approx(0.5)
    assert span_totals(spans)["solve"] == pytest.approx(7.0)


def fake_module(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    class Holder:
        def method(self, x):
            return x

    mod.inner, mod.outer, mod.Holder = inner, outer, Holder
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    return mod


def test_wrap_records_nested_spans_counts_and_restores(monkeypatch):
    mod = fake_module(monkeypatch)
    original_inner = mod.inner
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    seen = []
    assert tracer.wrap("fake_layer:outer", "outer", span=True, observe=seen.append)
    assert tracer.wrap("fake_layer:inner", "inner", span=True)
    assert tracer.wrap("fake_layer:Holder.method", "method")
    tracer.op_kind = "read"
    assert mod.outer(1) == 4
    assert mod.Holder().method(3) == 3
    tracer.op_kind = None
    assert seen == [4]
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == 0
    assert tracer.total("inner", "read") == 1
    assert tracer.total("method") == 1
    assert tracer.total("inner", "write") == 0
    tracer.restore()
    assert mod.inner is original_inner
    assert mod.Holder.method.__name__ == "method"
    assert not hasattr(mod.Holder.method, "__wrapped__")


def test_missing_target_is_reported_not_raised(monkeypatch):
    fake_module(monkeypatch)
    tracer = Tracer()
    assert not tracer.wrap("fake_layer:gone", "gone")
    assert not tracer.wrap("no_such_module_here:f", "nomod")
    assert tracer.wrap("fake_layer:inner", "shared")
    assert not tracer.wrap("fake_layer:also_gone", "shared")
    assert tracer.missing == {"gone", "nomod"}
    tracer.restore()
