"""The benchmark workloads.

Each workload is a set-up (build the templates, the counted evaluators
and, for Monte-Carlo, the per-spec worst-case operating points) and a
timed body that calls public entry points.  The seed is the only input;
the library receives only what the set-up derives from it.  Sizes keep
one body at about 5 s on a quiet 2-vCPU x86 VM (7-8 s when its host is
busy), so a 60 s run medians five to nine repeats.

Why these two (see ``bench/README.md`` for the layer shares):

* ``fc-optimize`` is the paper's Fig. 6 loop on the Table 1 folded
  cascode.  Scalar dense evaluations inside the worst-case search
  dominate and the batched Monte-Carlo engine is nearly idle; it is the
  only workload with evaluator cache hits and warm-start anchor
  chaining.
* ``verify-mc`` is the operational Monte-Carlo (Eq. 6-7) the optimizer
  bypasses, run three times: on the same small dense circuit (per-row
  bookkeeping in the batched path and small dense AC solves), on the
  508-unknown ``two-stage-array`` with warm anchors (sparse
  factorizations, batched warm Newton) and on it with warm anchors off
  (lockstep Newton from zero, full unity-gain sweeps).  The core search
  is idle.

There are two workloads, not one per Monte-Carlo configuration, because
the host's speed drifts by tens of percent over minutes: a run must
last about a minute for its median to be steady, and the benchmark's
total time allows that for two workloads only.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple


@dataclass
class Prepared:
    """A set-up workload, ready to time."""

    #: the counted evaluators the body uses (each knows its template)
    evaluators: Sequence[object]
    body: Callable[[], object]
    #: ``result -> Outcome``
    outcome: Callable[[object], "Outcome"]


@dataclass
class Outcome:
    """What a body produced, reduced to what the benchmark checks."""

    #: Table-7 simulation count of the body
    simulations: int
    #: non-converged DC solves plus samples the fault policy failed
    failed: int
    #: simulation-based yield estimate (the mean over the body's
    #: Monte-Carlo runs for ``verify-mc``)
    yield_estimate: float
    #: the values the correctness digest covers
    checked: object

    @property
    def digest(self) -> str:
        return digest(self.checked)


def _canonical(value):
    """JSON-ready form with floats at 6 significant digits, so the digest
    ignores a last-bit difference in most values.  It cannot in all: a
    value next to a rounding boundary still flips the digest, and the
    discrete search of ``fc-optimize`` can branch on an ulp.  The
    references in ``bench/reference.json`` therefore hold only for the
    numpy/BLAS build they were recorded with; on another build, record
    them again with ``python3 -m bench.calibrate --write-reference``."""
    if isinstance(value, float):
        return format(value, ".6g")
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def digest(value) -> str:
    """16-hex-digit sha256 of the canonical form of ``value``."""
    text = json.dumps(_canonical(value), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- fc-optimize --
def _optimize_outcome(result) -> Outcome:
    records = [{"d": r.d, "yield_linear": r.yield_linear,
                "yield_mc": r.yield_mc, "simulations": r.simulations}
               for r in result.records]
    return Outcome(
        simulations=result.total_simulations,
        failed=result.total_failed_samples
        + (result.dc_effort or {}).get("failed", 0),
        yield_estimate=result.final.yield_mc,
        checked={"records": records, "stop": result.stop_reason,
                 "simulations": result.total_simulations})


def optimize(n_samples_linear: int, n_samples_verify: int,
             max_iterations: int) -> Callable[[int], Prepared]:
    """Set-up of a folded-cascode Fig. 6 run, serial."""
    def setup(seed: int) -> Prepared:
        from repro.circuits import FoldedCascodeOpamp
        from repro.core import OptimizerConfig, YieldOptimizer
        from repro.evaluation import Evaluator

        evaluator = Evaluator(FoldedCascodeOpamp())
        optimizer = YieldOptimizer(
            evaluator.template,
            OptimizerConfig(n_samples_linear=n_samples_linear,
                            n_samples_verify=n_samples_verify,
                            max_iterations=max_iterations, seed=seed),
            evaluator=evaluator)
        return Prepared([evaluator], optimizer.run, _optimize_outcome)

    return setup


# -- verification Monte-Carlo --
def _mc_outcome(results) -> Outcome:
    return Outcome(
        simulations=sum(r.simulations for r in results),
        failed=sum(r.failed_samples + r.report.dc_effort.get("failed", 0)
                   for r in results),
        yield_estimate=statistics.mean(r.estimate for r in results),
        # The performance moments depend on every sample's values, so
        # the digest moves even where every sample passes (yield 1).
        checked=[{"estimate": r.estimate, "ci": [r.ci_low, r.ci_high],
                  "bad_fraction": r.bad_fraction,
                  "mean": r.performance_mean, "std": r.performance_std,
                  "simulations": r.simulations} for r in results])


def verify_mc(runs: Sequence[Tuple[str, int, bool]]
              ) -> Callable[[int], Prepared]:
    """Set-up of operational Monte-Carlo runs, one after the other, each
    ``(template name, n_samples, warm_dc)`` at the initial design of a
    registered template; the corner searches belong to the set-up."""
    def setup(seed: int) -> Prepared:
        from repro.circuits import CIRCUITS
        from repro.evaluation import Evaluator
        from repro.spec.operating import find_worst_case_operating_points
        from repro.yieldsim import make_estimator

        calls = []
        for name, n_samples, warm_dc in runs:
            template = CIRCUITS[name]()
            template.warm_dc = warm_dc
            evaluator = Evaluator(template)
            d = template.initial_design()
            s0 = template.statistical_space.nominal()
            theta_wc = find_worst_case_operating_points(
                lambda theta: evaluator.evaluate(d, s0, theta),
                template.specs, template.operating_range)
            calls.append((evaluator, d, theta_wc, n_samples))
        estimator = make_estimator("mc")

        def body():
            return [estimator.estimate(evaluator, d, theta_wc,
                                       n_samples=n_samples, seed=seed)
                    for evaluator, d, theta_wc, n_samples in calls]

        return Prepared([call[0] for call in calls], body, _mc_outcome)

    return setup


@dataclass(frozen=True)
class Workload:
    """A named set-up with the seed it runs at by default."""

    name: str
    default_seed: int
    setup: Callable[[int], Prepared]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fc-optimize", 7, optimize(10000, 100, max_iterations=2)),
    Workload("verify-mc", 11, verify_mc((("folded-cascode", 1000, True),
                                         ("two-stage-array", 160, True),
                                         ("two-stage-array", 64, False)))),
)}


def counters(prepared: Prepared) -> Dict[str, Dict[str, float]]:
    """Snapshot of the library's own counters (evaluator cache, warm
    anchors, DC strategies), summed over the evaluators, for body
    deltas."""
    totals: Dict[str, Dict[str, float]] = {"evaluator": {}, "warm": {},
                                           "dc": {}}
    for evaluator in prepared.evaluators:
        template = evaluator.template
        for group, values in (
                ("evaluator", {"cache_hits": evaluator.cache_hits,
                               "request_count": evaluator.request_count}),
                ("warm", template.warm_cache_stats()),
                ("dc", template.dc_effort_stats())):
            for key, value in values.items():
                totals[group][key] = totals[group].get(key, 0) + value
    return totals


def counter_delta(after: Dict[str, Dict[str, float]],
                  before: Dict[str, Dict[str, float]]
                  ) -> Dict[str, Dict[str, float]]:
    return {group: {key: value - before[group].get(key, 0)
                    for key, value in values.items()}
            for group, values in after.items()}
