"""The span table: which public library callables the traced repeat
wraps, the layer each one reports under, and the per-layer metrics
folded from the spans.

A layer is named after the ``repro`` module it lives in.  Every span
target is a public callable named ``"module:qualname"``; a function is
patched in every ``repro.*`` module that binds the same object, a method
on the class that defines it.  This table is the only place that knows
the names, so a library rename fails here (and in
``bench/tests/test_layers.py``) instead of silently dropping a span.

Deliberately not wrapped: the scalar per-device ``evaluate_nmos`` (its
call count would distort the trace), the batched engine's per-sample
``dc_result``/``systems`` shims, whose cost stays in
``circuits.evaluate_batch.self_s``, and ``phase_margin``, which only the
``miller`` template measures and no workload reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .tracer import ROOT_LAYER, Tracer, percentile


def _dc_iterations(counts, args, kwargs, result) -> None:
    counts["circuit.dc.newton_iters"] = \
        counts.get("circuit.dc.newton_iters", 0) + result.iterations


def _batch_rows(counts, args, kwargs, result) -> None:
    _, iterations, ok, _ = result
    counts["circuit.batch.rows"] = counts.get("circuit.batch.rows", 0) \
        + len(ok)
    counts["circuit.batch.carried"] = \
        counts.get("circuit.batch.carried", 0) + int(ok.sum())
    counts["circuit.dc.newton_iters"] = \
        counts.get("circuit.dc.newton_iters", 0) + int(iterations.sum())


def _one_frequency(counts, args, kwargs, result) -> None:
    counts["circuit.ac.solve.freqs"] = \
        counts.get("circuit.ac.solve.freqs", 0) + 1


def _many_frequencies(counts, args, kwargs, result) -> None:
    counts["circuit.ac.solve.freqs"] = \
        counts.get("circuit.ac.solve.freqs", 0) + len(result)


@dataclass(frozen=True)
class Target:
    """One wrapped callable."""

    #: layer metric prefix
    layer: str
    #: ``"module:qualname"`` of a public callable
    path: str
    #: ``observe(counts, args, kwargs, result)`` after a successful call
    observe: Optional[Callable] = None
    #: tracer probe whose difference over each outermost span of the
    #: layer is counted as ``<layer>.<probe>``
    probe: Optional[str] = None


LAYERS: Tuple[Target, ...] = (
    # The Fig. 6 steps and the operating-point corner search.
    Target("core.feasible_point",
           "repro.core.feasible_point:find_feasible_point"),
    Target("core.worst_case",
           "repro.core.worst_case:find_all_worst_case_points",
           probe="sims"),
    Target("core.linear_model",
           "repro.core.linear_model:build_spec_models", probe="sims"),
    Target("core.constraints",
           "repro.core.constraints:linearize_constraints"),
    Target("core.coordinate_search",
           "repro.core.coordinate_search:coordinate_search"),
    # The line search checks only the constraints, whose simulations the
    # evaluator counts apart from the Table-7 count.
    Target("core.line_search",
           "repro.core.line_search:feasibility_line_search",
           probe="constraint_sims"),
    Target("spec.operating",
           "repro.spec.operating:find_worst_case_operating_points"),
    # Verification Monte-Carlo.
    Target("yieldsim.estimate",
           "repro.yieldsim.operational:OperationalMC.estimate"),
    Target("yieldsim.executor",
           "repro.yieldsim.executor:BatchExecutor.run"),
    # Counted, cached evaluation.
    Target("evaluation.evaluate",
           "repro.evaluation.evaluator:Evaluator.evaluate"),
    Target("evaluation.evaluate",
           "repro.evaluation.evaluator:Evaluator.evaluate_batch"),
    Target("evaluation.evaluate",
           "repro.evaluation.evaluator:Evaluator.constraints"),
    # Circuit templates.
    Target("circuits.evaluate",
           "repro.circuits.base:OpampTemplate.evaluate"),
    Target("circuits.evaluate_batch",
           "repro.circuits.base:OpampTemplate.evaluate_batch"),
    Target("circuits.build",
           "repro.circuits.folded_cascode:FoldedCascodeOpamp.build"),
    Target("circuits.build",
           "repro.circuits.two_stage_array:TwoStageArrayOpamp.build"),
    Target("circuits.extract",
           "repro.circuits.folded_cascode:FoldedCascodeOpamp.extract"),
    Target("circuits.extract",
           "repro.circuits.two_stage_array:TwoStageArrayOpamp.extract"),
    # Sample-batched lockstep engine.
    Target("circuit.batch.plan",
           "repro.circuit.batch:SampleBatchPlan.__init__"),
    Target("circuit.batch.solve",
           "repro.circuit.batch:SampleBatchPlan.solve",
           observe=_batch_rows),
    # Scalar DC homotopy and the linear-solver backends.
    Target("circuit.dc.solve", "repro.circuit.dc:solve_dc",
           observe=_dc_iterations),
    Target("circuit.linsolve.dc_system",
           "repro.circuit.linsolve:DenseBackend.dc_system"),
    Target("circuit.linsolve.dc_system",
           "repro.circuit.linsolve:SparseBackend.dc_system"),
    Target("circuit.linsolve.solve_at",
           "repro.circuit.linsolve:DenseDcSystem.solve_at"),
    Target("circuit.linsolve.solve_at",
           "repro.circuit.linsolve:SparseDcSystem.solve_at"),
    Target("circuit.linsolve.factor",
           "repro.circuit.linsolve:PatternFactorizer.factor"),
    # Vectorized MOS model.
    Target("circuit.mos.batch", "repro.circuit.mos:evaluate_nmos_batch"),
    Target("circuit.mos.batch", "repro.circuit.mos:evaluate_nmos_stacked"),
    # Small-signal AC.
    Target("circuit.ac.assemble", "repro.circuit.ac:AcSystem.__init__"),
    Target("circuit.ac.assemble", "repro.circuit.ac:AcSystem.with_drives"),
    Target("circuit.ac.solve", "repro.circuit.ac:AcSystem.solve",
           observe=_one_frequency),
    Target("circuit.ac.solve", "repro.circuit.ac:AcSystem.solve_many",
           observe=_many_frequencies),
    Target("circuit.ac.solve", "repro.circuit.ac:shared_matrix_transfers",
           observe=_one_frequency),
    Target("circuit.ac.ugf", "repro.circuit.ac:unity_gain_frequency"),
    Target("circuit.ac.ugf", "repro.circuit.ac:warm_unity_crossing"),
)

#: Layers in report order (the order of first appearance above).
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in LAYERS))
#: Per-layer simulation counters, ``<layer>.<probe>``.
PROBE_COUNTS: Tuple[str, ...] = tuple(
    dict.fromkeys(f"{t.layer}.{t.probe}" for t in LAYERS if t.probe))

WARM_UGF = "repro.circuit.ac:warm_unity_crossing"
DC_STRATEGIES = ("newton-warm", "newton", "gmin-stepping",
                 "source-stepping", "failed")


def _metric_table() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in order."""
    table: List[Tuple[str, str, str]] = []
    for layer in LAYER_NAMES:
        table += [(f"{layer}.calls", "count", "lower"),
                  (f"{layer}.s", "s", "lower"),
                  (f"{layer}.self_s", "s", "lower")]
    table += [(name, "count", "lower") for name in PROBE_COUNTS]
    table += [
        ("evaluation.evaluate.p50_ms", "ms", "lower"),
        ("evaluation.evaluate.p90_ms", "ms", "lower"),
        ("evaluation.cache_hit_ratio", "ratio", "higher"),
        ("circuits.warm_hit_ratio", "ratio", "higher"),
        ("circuits.warm_chain_solves", "count", "lower"),
        ("circuit.batch.solve.p50_ms", "ms", "lower"),
        ("circuit.batch.solve.p90_ms", "ms", "lower"),
        ("circuit.batch.carried_ratio", "ratio", "higher"),
        ("circuit.dc.newton_iters", "count", "lower"),
        ("circuit.dc.warm_ratio", "ratio", "higher"),
    ]
    table += [(f"circuit.dc.strategy.{label}", "count",
               "higher" if label == "newton-warm" else "lower")
              for label in DC_STRATEGIES]
    table += [
        ("circuit.ac.solve.freqs", "count", "lower"),
        ("circuit.ac.ugf_warm_hit_ratio", "ratio", "higher"),
        ("yieldsim.yield_estimate", "ratio", "higher"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead", "ratio", "lower"),
        ("trace.unattributed_share", "ratio", "lower"),
    ]
    return table


#: ``(name, unit, better)`` of every per-layer metric.
METRICS: Tuple[Tuple[str, str, str], ...] = tuple(_metric_table())


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, wall_s: float,
                  counters: Dict[str, Dict[str, float]],
                  yield_estimate: float) -> Dict[str, float]:
    """Every metric of :data:`METRICS` except ``trace.overhead`` (which
    needs an untraced repeat), from one traced repeat.

    ``counters`` holds the body's deltas of the library's own counters:
    ``evaluator`` (``cache_hits``/``request_count``), ``warm``
    (``warm_cache_stats()``) and ``dc`` (``dc_effort_stats()``).
    """
    per_layer, per_name = tracer.summary()
    counts = tracer.counts
    out: Dict[str, float] = {}
    for layer in LAYER_NAMES:
        stats = per_layer[layer]
        out[f"{layer}.calls"] = stats.calls
        out[f"{layer}.s"] = stats.seconds
        out[f"{layer}.self_s"] = stats.self_seconds
    for name in PROBE_COUNTS:
        out[name] = counts.get(name, 0)
    for layer in ("evaluation.evaluate", "circuit.batch.solve"):
        durations = per_layer[layer].durations
        out[f"{layer}.p50_ms"] = percentile(durations, 50) * 1e3
        out[f"{layer}.p90_ms"] = percentile(durations, 90) * 1e3
    evaluator, warm, dc = counters["evaluator"], counters["warm"], \
        counters["dc"]
    out["evaluation.cache_hit_ratio"] = _ratio(evaluator["cache_hits"],
                                               evaluator["request_count"])
    out["circuits.warm_hit_ratio"] = _ratio(
        warm["hits"], warm["hits"] + warm["misses"])
    out["circuits.warm_chain_solves"] = warm["chain_solves"]
    out["circuit.batch.carried_ratio"] = _ratio(
        counts.get("circuit.batch.carried", 0),
        counts.get("circuit.batch.rows", 0))
    out["circuit.dc.newton_iters"] = counts.get("circuit.dc.newton_iters", 0)
    out["circuit.dc.warm_ratio"] = _ratio(
        dc.get("newton-warm", 0), sum(dc.get(k, 0) for k in DC_STRATEGIES))
    for label in DC_STRATEGIES:
        out[f"circuit.dc.strategy.{label}"] = dc.get(label, 0)
    out["circuit.ac.solve.freqs"] = counts.get("circuit.ac.solve.freqs", 0)
    warm_calls = per_name[WARM_UGF].calls
    out["circuit.ac.ugf_warm_hit_ratio"] = _ratio(
        warm_calls - tracer.errors(WARM_UGF), warm_calls)
    out["yieldsim.yield_estimate"] = yield_estimate
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_share"] = _ratio(
        per_layer[ROOT_LAYER].self_seconds, wall_s)
    return out
