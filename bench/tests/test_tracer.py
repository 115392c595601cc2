"""Span arithmetic of :mod:`bench.tracer` on synthetic callables."""

import json
import sys
import types

import pytest

from bench.tracer import ROOT_LAYER, Tracer, TargetNotFound, bindings, \
    percentile, resolve


class FakeClock:
    """Advances only when a synthetic callable says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def nested_tracer():
    """root(1) -> outer(2) -> [inner(3), inner(4) -> leaf(5)];
    returns the tracer and the root callable."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.spend(5.0)

    def inner(n):
        clock.spend(n)
        if n == 4.0:
            traced_leaf()

    def outer():
        clock.spend(2.0)
        traced_inner(3.0)
        traced_inner(4.0)

    def root():
        clock.spend(1.0)
        traced_outer()

    traced_leaf = tracer.wrap(leaf, "leaf", "b")
    traced_inner = tracer.wrap(inner, "inner", "b")
    traced_outer = tracer.wrap(outer, "outer", "a")
    return tracer, tracer.wrap(root, "root", ROOT_LAYER)


def test_self_time_is_duration_minus_children():
    tracer, root = nested_tracer()
    root()
    per_layer, per_name = tracer.summary()
    assert per_name["leaf"].self_seconds == 5.0
    assert per_name["inner"].self_seconds == 3.0 + 4.0
    assert per_name["outer"].self_seconds == 2.0
    assert per_name["root"].self_seconds == 1.0
    assert per_layer[ROOT_LAYER].seconds == 15.0
    total_self = sum(stats.self_seconds for stats in per_layer.values())
    assert total_self == pytest.approx(per_layer[ROOT_LAYER].seconds)


def test_nested_spans_of_one_layer_count_once():
    tracer, root = nested_tracer()
    root()
    per_layer, per_name = tracer.summary()
    # leaf runs inside inner, both in layer "b": the leaf call is not a
    # second outermost call and its time is not added twice.
    assert per_layer["b"].calls == 2
    assert per_layer["b"].seconds == 3.0 + (4.0 + 5.0)
    assert per_layer["b"].self_seconds == 12.0
    assert per_name["leaf"].calls == 0
    assert sorted(per_layer["b"].durations) == [3.0, 9.0]


def test_parent_ids_and_errors():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.spend(1.0)
        raise ValueError("boom")

    traced = tracer.wrap(boom, "boom", "x")
    with pytest.raises(ValueError):
        tracer.wrap(lambda: traced(), "outer", ROOT_LAYER)()
    inner, outer = tracer.spans
    assert inner[5] == outer[4]  # parent id of the failing span
    assert tracer.errors("boom") == 1 and tracer.errors("outer") == 1
    assert len(tracer._stack) == 1  # the stack unwound


def test_observe_and_probe_counts():
    clock = FakeClock()
    state = {"sims": 0}
    tracer = Tracer(clock=clock, probes={"sims": lambda: state["sims"]})

    def simulate(n):
        state["sims"] += n
        if n > 1:
            traced(1)  # nested: counted by the outer span only
        return n

    def observe(counts, args, kwargs, result):
        counts["seen"] = counts.get("seen", 0) + result

    traced = tracer.wrap(simulate, "simulate", "core.x", observe=observe,
                         probe="sims")
    traced(3)
    assert tracer.counts["core.x.sims"] == 4
    assert tracer.counts["seen"] == 4


def test_chrome_trace_is_json_with_complete_events():
    tracer, root = nested_tracer()
    root()
    document = json.loads(json.dumps(tracer.chrome_trace()))
    events = document["traceEvents"]
    assert [e["name"] for e in events] == ["root", "outer", "inner",
                                           "inner", "leaf"]
    assert all(e["ph"] == "X" for e in events)
    assert events[0]["ts"] == 0.0 and events[0]["dur"] == 15e6


def test_percentile():
    assert percentile([], 50) == 0.0
    assert percentile([2.0], 90) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0


def test_install_patches_every_binding_and_uninstall_restores():
    module = types.ModuleType("fakepkg.lib")
    copy = types.ModuleType("fakepkg.user")

    def work():
        return 7

    class Engine:
        def run(self):
            return 8

    module.work, module.Engine = work, Engine
    copy.work = work  # as bound by ``from fakepkg.lib import work``
    sys.modules.update({"fakepkg.lib": module, "fakepkg.user": copy})
    target = types.SimpleNamespace
    try:
        tracer = Tracer(package="fakepkg")
        tracer.install([target(layer="l", path="fakepkg.lib:work"),
                        target(layer="l", path="fakepkg.lib:Engine.run")])
        assert copy.work is not work and module.work is not work
        assert copy.work() == 7 and Engine().run() == 8
        assert [tracer.names[s[0]] for s in tracer.spans] == \
            ["fakepkg.lib:work", "fakepkg.lib:Engine.run"]
        tracer.uninstall()
        assert module.work is work and copy.work is work
        assert Engine.__dict__["run"].__name__ == "run"
        assert not hasattr(Engine.__dict__["run"], "__wrapped__")
    finally:
        del sys.modules["fakepkg.lib"], sys.modules["fakepkg.user"]


def test_resolve_refuses_missing_and_inherited_targets():
    with pytest.raises(TargetNotFound):
        resolve("json:no_such_function")
    with pytest.raises(TargetNotFound):
        resolve("no_such_module_xyz:f")
    with pytest.raises(TargetNotFound):
        resolve("json.decoder:JSONDecoder.no_such_method")
    # ``__repr__`` is inherited from object, not defined on the class.
    with pytest.raises(TargetNotFound):
        resolve("json.decoder:JSONDecoder.__repr__")
    owner, attr, fn = resolve("json:dumps")
    assert bindings(owner, attr, fn, "json") == [(sys.modules["json"],
                                                  "dumps")]
