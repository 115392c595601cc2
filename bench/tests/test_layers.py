"""The span table against the library, and the metric declarations and
bounds against ``BENCHMARK.json``."""

import json
import re
import sys

import pytest

from bench.calibrate import suggested_bound
from bench.layers import LAYER_NAMES, LAYERS, METRICS
from bench.run import END_TO_END, ROOT
from bench.tracer import Tracer, bindings, resolve
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("target", LAYERS, ids=lambda t: t.path)
def test_every_target_resolves_to_a_library_callable(target):
    owner, attr, fn = resolve(target.path)
    assert callable(fn)
    assert bindings(owner, attr, fn, "repro"), target.path


def test_install_then_uninstall_restores_every_attribute():
    import repro  # noqa: F401 - load every module that may bind a target

    def snapshot():
        state = {}
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for key, value in vars(module).items():
                    state[(name, key)] = value
                    if isinstance(value, type) and \
                            value.__module__.startswith("repro"):
                        for member, raw in vars(value).items():
                            state[(name, key, member)] = raw
        return state

    before = snapshot()
    tracer = Tracer(probes={"sims": lambda: 0, "constraint_sims": lambda: 0})
    tracer.install(LAYERS)
    patched = snapshot()
    changed = [key for key in before if patched[key] is not before[key]]
    assert len(changed) >= len(LAYERS)
    tracer.uninstall()
    after = snapshot()
    assert all(after[key] is before[key] for key in before)


def test_metric_declarations_match_benchmark_json():
    declared = [(m["name"], m["unit"], m["better"])
                for m in BENCHMARK["per_layer"]]
    assert declared == list(METRICS)
    declared = [(m["name"], m["unit"], m["better"])
                for m in BENCHMARK["end_to_end"]]
    assert declared == list(END_TO_END)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_benchmark_json_follows_the_schema():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert BENCHMARK["paths"] == ["bench"]
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [m["name"] for m in BENCHMARK["end_to_end"]
             + BENCHMARK["per_layer"]] \
        + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0.0 <= metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and \
        setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCHMARK["workloads"])


def test_bounds_follow_the_calibration_record():
    record = json.loads((ROOT / "bench" / "results"
                         / "baseline.json").read_text())
    for metric in BENCHMARK["end_to_end"]:
        rows = [record["summary"][w][metric["name"]] for w in WORKLOADS]
        spreads = [s["spread"] for row in rows for s in row["sets"]]
        assert metric["bound"] == suggested_bound(spreads, metric["unit"])


def test_suggested_bound_steps():
    assert suggested_bound([0.0], "count") == 0.01
    assert suggested_bound([0.0], "s") == 0.05
    assert suggested_bound([0.02], "s") == 0.1
    assert suggested_bound([0.2], "s") == 0.25


def test_every_layer_has_calls_time_and_self_time():
    names = {name for name, _, _ in METRICS}
    for layer in LAYER_NAMES:
        assert {f"{layer}.calls", f"{layer}.s", f"{layer}.self_s"} <= names
