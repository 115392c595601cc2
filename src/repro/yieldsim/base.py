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

from ..evaluation.evaluator import Evaluator
from ..spec.operating import group_by_theta, spec_key
from ..statistics.intervals import wilson_interval
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

        before = (evaluator.simulation_count, evaluator.request_count,
                  evaluator.cache_hits, evaluator.cache_misses)
        retried0 = getattr(evaluator, "retried_evaluations", 0)
        warm_stats = getattr(template, "warm_cache_stats", None)
        warm0 = warm_stats() if callable(warm_stats) else None
        dc_stats = getattr(template, "dc_effort_stats", None)
        dc0 = dc_stats() if callable(dc_stats) else None
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

        report.theta_groups = len(thetas)
        report.simulations += evaluator.simulation_count - before[0]
        report.requests += evaluator.request_count - before[1]
        report.cache_hits += evaluator.cache_hits - before[2]
        report.cache_misses += evaluator.cache_misses - before[3]
        report.backend = outcome.backend
        report.jobs = outcome.jobs
        report.chunks += outcome.chunks
        report.retried_chunks += outcome.retried_chunks
        report.timed_out_chunks += outcome.timed_out_chunks
        report.failed_samples += int(np.count_nonzero(failed))
        report.retried_evaluations += \
            getattr(evaluator, "retried_evaluations", 0) - retried0
        report.degraded_to_serial |= outcome.degraded_to_serial
        report.pool_incompatible |= outcome.pool_incompatible
        if warm0 is not None:
            # Warm-start cache effort accrued during this run (the parent
            # counters already include folded pool-worker deltas).
            from ..circuit.dc import WarmStartCache
            delta = WarmStartCache.counter_delta(warm_stats(), warm0)
            for key, value in delta.items():
                report.warm_cache[key] = \
                    report.warm_cache.get(key, 0) + value
        if dc0 is not None:
            from ..circuit.dc import DcEffort
            delta = DcEffort.counter_delta(dc_stats(), dc0)
            for key, value in delta.items():
                report.dc_effort[key] = \
                    report.dc_effort.get(key, 0) + value
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
        """Unweighted reduction shared by OperationalMC and SobolQMC:
        mean indicator with a Wilson interval."""
        n = evaluation.indicator.shape[0]
        passes = int(np.count_nonzero(evaluation.indicator))
        ci_low, ci_high = wilson_interval(passes, n, self.ci_level)
        # Performance statistics cover the evaluable samples only: a
        # failed (NaN) record counts against the yield but carries no
        # performance value to average.
        means: Dict[str, float] = {}
        stds: Dict[str, float] = {}
        moments: Dict[str, SpecMoments] = {}
        for key, values in evaluation.spec_values.items():
            finite = values[np.isfinite(values)]
            means[key] = float(np.mean(finite)) if finite.size \
                else float("nan")
            stds[key] = float(np.std(finite, ddof=1)) \
                if finite.size > 1 else 0.0
            bad_count = float(
                np.count_nonzero(~evaluation.spec_pass[key]))
            moments[key] = SpecMoments(
                weight=float(finite.size),
                mean=means[key] if finite.size else 0.0,
                m2=float(np.sum((finite - means[key]) ** 2))
                if finite.size else 0.0,
                bad_weight=bad_count)
        # An empty batch (n == 0, e.g. a zero-width shard) carries no
        # information: estimate 0 with the degenerate full interval from
        # wilson_interval, never a division by zero.
        bad = {key: float(np.count_nonzero(~ok)) / n if n else 0.0
               for key, ok in evaluation.spec_pass.items()}
        failed = int(np.count_nonzero(evaluation.failed))
        stats = SufficientStats(
            kind=KIND_BINOMIAL, n=n, successes=passes, failed=failed,
            log_shift=0.0, w_sum=float(n), w_sq_sum=float(n),
            w_pass_sum=float(passes), w_sq_pass_sum=float(passes),
            spec=moments)
        return YieldResult(
            estimator=self.name, estimate=passes / n if n else 0.0,
            n_samples=n,
            simulations=report.simulations, ci_low=ci_low, ci_high=ci_high,
            ci_level=self.ci_level, ess=float(n), bad_fraction=bad,
            performance_mean=means, performance_std=stds,
            failed_samples=failed, report=report, stats=stats,
            shard_index=None if shard is None else shard.index,
            shard_total=None if shard is None else shard.total)
