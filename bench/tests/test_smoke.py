"""Small-size runs of every workload, traced and untraced, in this
process, plus the failure path of the command."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from bench import workloads
from bench.child import measure
from bench.layers import LAYER_NAMES, METRICS
from bench.run import ROOT

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

#: The workloads at sizes that run in seconds.
TINY = {
    "fc-optimize": workloads.optimize(500, 8, max_iterations=1),
    "verify-mc": workloads.verify_mc((("folded-cascode", 40, True),
                                      ("two-stage-array", 8, True),
                                      ("two-stage-array", 4, False))),
}


def test_tiny_variants_cover_every_workload():
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_smoke(name, tmp_path):
    seed = workloads.WORKLOADS[name].default_seed
    plain = measure(name, TINY[name], seed)
    trace_file = tmp_path / "trace.json"
    traced = measure(name, TINY[name], seed, trace=True,
                     trace_out=str(trace_file))

    # Tracing does not perturb results.
    assert traced["digest"] == plain["digest"]
    assert traced["simulations"] == plain["simulations"] > 0
    assert plain["failed"] == 0

    layers = traced["layers"]
    expected = {name for name, _, _ in METRICS} - {"trace.overhead"}
    assert set(layers) == expected
    assert all(NAME.match(metric) for metric in layers)
    assert all(isinstance(v, (int, float)) for v in layers.values())

    # Self times partition the traced wall.
    wall = layers["trace.wall_s"]
    total = sum(layers[f"{layer}.self_s"] for layer in LAYER_NAMES) \
        + layers["trace.unattributed_share"] * wall
    assert total == pytest.approx(wall, rel=0.01)

    events = json.loads(trace_file.read_text())["traceEvents"]
    assert events[0]["name"] == name

    if name == "fc-optimize":
        assert layers["core.worst_case.calls"] >= 1
        assert layers["core.worst_case.sims"] >= 1
        assert layers["core.line_search.constraint_sims"] >= 1
        assert layers["circuit.linsolve.factor.calls"] == 0
    else:
        assert layers["core.worst_case.calls"] == 0
        assert layers["yieldsim.estimate.calls"] == 3
        assert layers["circuit.batch.solve.calls"] >= 1
        assert layers["circuit.linsolve.factor.calls"] > 0
        # The cold run solves from zero, the warm runs from anchors.
        assert layers["circuit.dc.strategy.newton-warm"] > 0
        assert 0 < layers["circuit.dc.warm_ratio"] < 1


def test_command_fails_without_the_library(tmp_path):
    """A checkout holding only the benchmark: non-zero exit, no result."""
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "verify-mc",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert "repeat exited" in proc.stderr
