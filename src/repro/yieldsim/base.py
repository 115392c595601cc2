"""The estimator interface and the shared sample-evaluation pipeline.

All estimators share the operational-yield semantics of Eq. 6-7: a sample
passes iff **every** spec holds *at that spec's worst-case operating
point*.  Specs sharing a worst-case corner share one simulation (the
paper's ``N*`` remark in Sec. 2), so the pipeline first groups specs by
corner, then drives the :class:`BatchExecutor` over ``n_samples x
n_corners`` evaluations — each corner measuring only the performances of
the specs checked there, since Eq. 6-7 reads no other value — and
finally turns raw performance values into per-spec pass/fail arrays.
What an estimator adds on top is only *where the samples come from* and
*how the indicator is averaged* (plain mean, likelihood-ratio-weighted
mean, low-discrepancy mean).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .. import counters
from ..evaluation.evaluator import Evaluator
from ..spec.operating import group_by_theta, spec_key
from .executor import BatchExecutor, BatchOutcome, ExecutionConfig
from .result import (KIND_BINOMIAL, SpecMoments, SufficientStats,
                     YieldResult)
from .shard import ShardPlan
from .telemetry import PhaseTimer, RunReport


@dataclass
class SampleEvaluation:
    """Per-spec view of an evaluated sample matrix."""

    #: spec key -> (n,) performance values at the spec's worst-case corner
    spec_values: Dict[str, np.ndarray]
    #: spec key -> (n,) boolean pass array
    spec_pass: Dict[str, np.ndarray]
    #: (n,) boolean all-specs-pass indicator
    indicator: np.ndarray
    #: (n,) boolean mask of samples whose evaluation failed under the
    #: fault policy (NaN performance records); always counted as failing
    failed: np.ndarray
    outcome: BatchOutcome


class YieldEstimator(abc.ABC):
    """A pluggable operational-yield estimator.

    Implementations estimate ``Y_tilde`` (Eq. 6-7) at a design ``d`` given
    the per-spec worst-case operating points.  ``worst_case`` optionally
    carries the Eq. 8 worst-case *statistical* points; estimators that
    cannot use them (plain MC, QMC) ignore the argument, so one call site
    can serve every estimator.
    """

    #: short name used by the CLI/factory ("mc", "is", "qmc")
    name: str = "abstract"

    def __init__(self, execution: Optional[ExecutionConfig] = None,
                 ci_level: float = 0.95):
        self.execution = execution or ExecutionConfig()
        self.ci_level = ci_level
        #: optional persistent :class:`~repro.yieldsim.executor.PoolHandle`
        #: shared with the rest of the run (the optimizer attaches its
        #: pool here so verification reuses the same warm workers)
        self.pool = None

    @abc.abstractmethod
    def estimate(self, evaluator: Evaluator, d: Mapping[str, float],
                 theta_per_spec: Mapping[str, Mapping[str, float]],
                 n_samples: int = 300, seed: Optional[int] = 2001,
                 worst_case: Optional[Mapping[str, object]] = None,
                 shard: Optional[ShardPlan] = None) -> YieldResult:
        """Estimate the yield at ``d``; see class docstring.

        ``shard`` restricts the run to one deterministic sub-stream of
        the ``n_samples``-sized logical stream (see
        :mod:`repro.yieldsim.shard`); the result then covers
        ``shard.count(n_samples)`` samples and is mergeable with its
        sibling shards via :func:`~repro.yieldsim.shard.merge_results`.
        """

    # -- shared pipeline --------------------------------------------------------
    def _evaluate_matrix(self, evaluator: Evaluator,
                         d: Mapping[str, float],
                         theta_per_spec: Mapping[str, Mapping[str, float]],
                         matrix: np.ndarray,
                         report: RunReport) -> SampleEvaluation:
        """Evaluate all samples at all distinct worst-case corners, each
        for the performances of its specs, and reduce to per-spec pass
        arrays (fills executor telemetry)."""
        template = evaluator.template
        specs = {spec_key(spec): spec for spec in template.specs}
        groups = group_by_theta(theta_per_spec, template.operating_range)
        thetas: List[Mapping[str, float]] = []
        group_keys: List[List[str]] = []
        requests: List[Tuple[str, ...]] = []
        for corner, keys in groups.items():
            thetas.append(dict(theta_per_spec[keys[0]]))
            group_keys.append(keys)
            requests.append(template.requested_performances(
                {specs[key].performance for key in keys}))

        stack = evaluator.counters()
        before = counters.snapshot(stack)
        with PhaseTimer(report, "simulate"):
            outcome = BatchExecutor(self.execution, pool=self.pool).run(
                evaluator, d, thetas, matrix, requests)

        n = matrix.shape[0]
        spec_values: Dict[str, np.ndarray] = {}
        spec_pass: Dict[str, np.ndarray] = {}
        with PhaseTimer(report, "reduce"):
            failed = np.zeros(n, dtype=bool)
            for g, keys in enumerate(group_keys):
                for key in keys:
                    spec = specs[key]
                    values = np.fromiter(
                        (outcome.values[j][g][spec.performance]
                         for j in range(n)), dtype=float, count=n)
                    spec_values[key] = values
                    # NaN (a failed evaluation under the fault policy)
                    # compares False, i.e. counts as violating the spec.
                    spec_pass[key] = spec.sign * (values - spec.bound) >= 0.0
                    failed |= ~np.isfinite(values)
            indicator = np.ones(n, dtype=bool)
            for passes in spec_pass.values():
                indicator &= passes

        # The stack's counts include the folded pool-worker effort.
        spent = counters.since(stack, before)
        own = spent["evaluator"]
        report.theta_groups = len(thetas)
        report.backend = outcome.backend
        report.jobs = outcome.jobs
        report.add(RunReport(
            simulations=own["simulations"], requests=own["requests"],
            cache_hits=own["cache_hits"], cache_misses=own["cache_misses"],
            chunks=outcome.chunks, retried_chunks=outcome.retried_chunks,
            timed_out_chunks=outcome.timed_out_chunks,
            failed_samples=int(np.count_nonzero(failed)),
            retried_evaluations=spent.get("policy", {}).get(
                "retried_evaluations", 0),
            degraded_to_serial=outcome.degraded_to_serial,
            pool_incompatible=outcome.pool_incompatible,
            warm_cache=spent.get("warm_cache", {}),
            dc_effort=spent.get("dc_effort", {})))
        return SampleEvaluation(spec_values=spec_values,
                                spec_pass=spec_pass,
                                indicator=indicator, failed=failed,
                                outcome=outcome)

    def _new_report(self, n_samples: int) -> RunReport:
        return RunReport(estimator=self.name, n_samples=n_samples,
                         jobs=self.execution.jobs)

    def _binomial_result(self, evaluation: SampleEvaluation,
                         report: RunReport,
                         shard: Optional[ShardPlan] = None) -> YieldResult:
        """Unweighted statistics shared by OperationalMC and SobolQMC:
        the pass count and per-spec moments over unit weights."""
        n = evaluation.indicator.shape[0]
        passes = int(np.count_nonzero(evaluation.indicator))
        # Performance moments cover the evaluable samples only: a failed
        # (NaN) record counts against the yield but carries no
        # performance value to average.
        moments: Dict[str, SpecMoments] = {}
        for key, values in evaluation.spec_values.items():
            finite = values[np.isfinite(values)]
            mean = float(np.mean(finite)) if finite.size else 0.0
            moments[key] = SpecMoments(
                weight=float(finite.size), mean=mean,
                m2=float(np.sum((finite - mean) ** 2))
                if finite.size else 0.0,
                bad_weight=float(
                    np.count_nonzero(~evaluation.spec_pass[key])))
        stats = SufficientStats(
            kind=KIND_BINOMIAL, n=n, successes=passes,
            failed=int(np.count_nonzero(evaluation.failed)),
            log_shift=0.0, w_sum=float(n), w_sq_sum=float(n),
            w_pass_sum=float(passes), w_sq_pass_sum=float(passes),
            spec=moments)
        return self._result(stats, report, shard)

    def _result(self, stats: SufficientStats, report: RunReport,
                shard: Optional[ShardPlan]) -> YieldResult:
        """This run's record, rendered from its statistics."""
        return YieldResult.from_stats(
            self.name, stats, self.ci_level, report.simulations, report,
            shard_index=None if shard is None else shard.index,
            shard_total=None if shard is None else shard.total)
