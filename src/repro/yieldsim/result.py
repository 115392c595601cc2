"""The common result record all yield estimators produce.

:class:`YieldResult` is the one verification record: optimizer iteration
records, checkpoints, result artifacts and the paper-table renderers all
carry it.  Next to the estimate and the per-spec numbers the tables
show, it holds a confidence interval that stays honest at 0 %/100 %
estimates, the effective sample size of weighted estimators, and the run
telemetry.

The record also carries its **sufficient statistics**
(:class:`SufficientStats`): the pooled success count for binomial
estimators, the weight sums ``sum w`` / ``sum w^2`` for self-normalized
importance sampling, and per-spec weighted moment accumulators.  All
three estimators are linear in their sample streams, so two results over
disjoint streams combine *exactly* by pooling these statistics
(:func:`repro.yieldsim.shard.merge_results`).  The estimate, interval,
ESS and per-spec numbers are a rendering of the statistics, not the
record of truth: :meth:`YieldResult.from_stats` is the one place that
renders them, for every estimator's direct run and for every merge.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from .telemetry import RunReport

#: ``SufficientStats.kind`` for unweighted (binomial) estimators (MC/QMC)
KIND_BINOMIAL = "binomial"
#: ``SufficientStats.kind`` for self-normalized weighted estimators (IS)
KIND_WEIGHTED = "weighted"


@dataclass
class SpecMoments:
    """Per-spec weighted moment accumulators over one sample stream.

    For unweighted estimators the "weights" are unit counts; for
    importance sampling they are the likelihood ratios at the shard's
    log scale (see :attr:`SufficientStats.log_shift`).  ``mean``/``m2``
    cover the *finite* (evaluable) samples only; ``bad_weight`` covers
    every sample, failed ones included (they violate every spec).
    """

    #: total weight of finite samples (count for binomial estimators)
    weight: float = 0.0
    #: weighted mean of the performance over the finite samples
    mean: float = 0.0
    #: weighted sum of squared deviations ``sum w (x - mean)^2``
    m2: float = 0.0
    #: total weight of spec-violating samples (count for binomial)
    bad_weight: float = 0.0

    def std(self, ddof: float) -> float:
        """``sqrt(m2 / (weight - ddof))``; 0 without that much weight."""
        dof = self.weight - ddof
        return math.sqrt(max(self.m2, 0.0) / dof) if dof > 0.0 else 0.0

    @classmethod
    def from_dict(cls, data: Dict) -> "SpecMoments":
        return cls(weight=float(data["weight"]), mean=float(data["mean"]),
                   m2=float(data["m2"]),
                   bad_weight=float(data["bad_weight"]))


@dataclass
class SufficientStats:
    """Everything needed to pool yield estimates across sample streams.

    The weighted sums are stored at the shard's own log scale: the raw
    likelihood-ratio weights are ``exp(log w)``, the sums below use
    ``w = exp(log w - log_shift)`` with ``log_shift = max(log w)`` to
    stay finite.  Merging rescales each stream's sums by
    ``exp(log_shift_j - max_j log_shift_j)`` before adding, which keeps
    the pooled self-normalized ratio exact.  Binomial streams use unit
    weights (``log_shift = 0``, ``w_sum = n``).
    """

    #: :data:`KIND_BINOMIAL` or :data:`KIND_WEIGHTED`
    kind: str
    #: statistical samples in this stream
    n: int
    #: samples whose all-specs-pass indicator was True
    successes: int
    #: samples whose evaluation failed (counted as violating every spec)
    failed: int = 0
    #: log scale of the weight sums below (0 for binomial streams)
    log_shift: float = 0.0
    #: ``sum w`` over all samples
    w_sum: float = 0.0
    #: ``sum w^2`` over all samples
    w_sq_sum: float = 0.0
    #: ``sum w`` over passing samples
    w_pass_sum: float = 0.0
    #: ``sum w^2`` over passing samples
    w_sq_pass_sum: float = 0.0
    #: per spec key, the weighted moment accumulators
    spec: Dict[str, SpecMoments] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        """Every field in declaration order, ``spec`` as plain dicts."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "SufficientStats":
        """Inverse of :meth:`to_dict`: every field is required."""
        return cls(
            kind=data["kind"],
            n=int(data["n"]),
            successes=int(data["successes"]),
            failed=int(data["failed"]),
            log_shift=float(data["log_shift"]),
            w_sum=float(data["w_sum"]),
            w_sq_sum=float(data["w_sq_sum"]),
            w_pass_sum=float(data["w_pass_sum"]),
            w_sq_pass_sum=float(data["w_sq_pass_sum"]),
            spec={key: SpecMoments.from_dict(moments)
                  for key, moments in data["spec"].items()})


@dataclass
class YieldResult:
    """Outcome of one yield estimation."""

    #: estimator short name ("mc", "is", "qmc")
    estimator: str
    #: the yield estimate in [0, 1]
    estimate: float
    #: statistical samples used
    n_samples: int
    #: simulator calls spent by this run
    simulations: int
    #: confidence interval [ci_low, ci_high] at ``ci_level``
    ci_low: float
    ci_high: float
    ci_level: float
    #: effective sample size: ``n`` for unweighted estimators,
    #: ``(sum w)^2 / sum w^2`` for importance sampling
    ess: float
    #: sufficient statistics: exact shard merging, the standard error,
    #: and the interval at any level all derive from them
    stats: SufficientStats
    #: per spec key, (weighted) fraction of samples violating that spec
    bad_fraction: Dict[str, float] = field(default_factory=dict)
    #: per spec key, (weighted) sample mean of the performance at its
    #: worst-case operating point (presentation units)
    performance_mean: Dict[str, float] = field(default_factory=dict)
    #: per spec key, (weighted) sample standard deviation
    performance_std: Dict[str, float] = field(default_factory=dict)
    #: samples whose evaluation failed under the fault policy; each is
    #: counted as violating every spec (already folded into ``estimate``
    #: and ``bad_fraction``), surfaced here for the trace tables
    failed_samples: int = 0
    #: run telemetry (phases, executor stats, cache accounting)
    report: Optional[RunReport] = None
    #: 0-based shard index when this result covers one shard of a
    #: partitioned sample stream (None = unsharded / merged)
    shard_index: Optional[int] = None
    #: total shard count of the partition this result belongs to
    shard_total: Optional[int] = None
    #: number of shard results pooled into this record (0 = a direct
    #: estimator run, 1+ = produced by ``merge_results``)
    merged_from: int = 0
    #: the per-shard run reports of a merged record (provenance for the
    #: health tables; ``report`` is their fold)
    shard_reports: List[RunReport] = field(default_factory=list)

    @classmethod
    def from_stats(cls, estimator: str, stats: SufficientStats,
                   ci_level: float, simulations: int,
                   report: Optional[RunReport] = None,
                   **provenance) -> "YieldResult":
        """Render ``stats`` as a record: the estimate, the interval at
        ``ci_level``, the ESS, and per spec the bad fraction, mean and
        standard deviation.  ``provenance`` sets the shard fields
        (``shard_index``, ``shard_total``, ``merged_from``,
        ``shard_reports``)."""
        estimate = _stats_estimate(stats)
        ci_low, ci_high = _stats_interval(stats, estimate, ci_level)
        binomial = stats.kind == KIND_BINOMIAL
        denom = float(stats.n) if binomial else stats.w_sum
        spec = stats.spec.items()
        # Moments cover the evaluable samples only.  Binomial streams
        # report the sample (n - 1) deviation, weighted streams the
        # self-normalized population deviation.
        return cls(
            estimator=estimator, estimate=estimate, n_samples=stats.n,
            simulations=simulations, ci_low=ci_low, ci_high=ci_high,
            ci_level=ci_level, ess=_stats_ess(stats), stats=stats,
            bad_fraction={key: m.bad_weight / denom if denom else 0.0
                          for key, m in spec},
            performance_mean={key: m.mean if m.weight > 0.0 else math.nan
                              for key, m in spec},
            performance_std={key: m.std(1.0 if binomial else 0.0)
                             for key, m in spec},
            failed_samples=stats.failed, report=report, **provenance)

    @property
    def standard_error(self) -> float:
        """Standard error of the yield estimate, computed from the
        sufficient statistics: the binomial ``sqrt(p (1-p) / n)`` for
        MC/QMC, the delta-method SE of the self-normalized ratio for IS.
        """
        return _stats_standard_error(self.stats)

    @property
    def ci_width(self) -> float:
        return self.ci_high - self.ci_low

    def confidence_interval(self, level: Optional[float] = None
                            ) -> Tuple[float, float]:
        """The confidence interval at ``level`` (default: the stored
        ``ci_level``).  Any other level is recomputed from the
        sufficient statistics: Wilson from the pooled ``k, N`` for
        binomial estimators, delta-method normal for IS."""
        if level is None or abs(level - self.ci_level) <= 1e-12:
            return (self.ci_low, self.ci_high)
        return _stats_interval(self.stats, self.estimate, level)

    # -- serialization ----------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "estimator": self.estimator,
            "estimate": self.estimate,
            "n_samples": self.n_samples,
            "simulations": self.simulations,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "ci_level": self.ci_level,
            "ess": self.ess,
            "bad_fraction": dict(self.bad_fraction),
            "performance_mean": dict(self.performance_mean),
            "performance_std": dict(self.performance_std),
            "failed_samples": self.failed_samples,
            "report": self.report.to_dict() if self.report else None,
            "stats": self.stats.to_dict(),
            "shard_index": self.shard_index,
            "shard_total": self.shard_total,
            "merged_from": self.merged_from,
            "shard_reports": [report.to_dict()
                              for report in self.shard_reports],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: Dict) -> "YieldResult":
        """Inverse of :meth:`to_dict` (every field is required); used by
        checkpoint restore and the artifact readers."""
        report = data["report"]
        return cls(
            estimator=data["estimator"],
            estimate=float(data["estimate"]),
            n_samples=int(data["n_samples"]),
            simulations=int(data["simulations"]),
            ci_low=float(data["ci_low"]),
            ci_high=float(data["ci_high"]),
            ci_level=float(data["ci_level"]),
            ess=float(data["ess"]),
            stats=SufficientStats.from_dict(data["stats"]),
            bad_fraction=dict(data["bad_fraction"]),
            performance_mean=dict(data["performance_mean"]),
            performance_std=dict(data["performance_std"]),
            failed_samples=int(data["failed_samples"]),
            report=None if report is None
            else RunReport.from_dict(report),
            shard_index=data["shard_index"],
            shard_total=data["shard_total"],
            merged_from=int(data["merged_from"]),
            shard_reports=[RunReport.from_dict(entry)
                           for entry in data["shard_reports"]])


# -- deriving presentation numbers from sufficient statistics ----------------
def _stats_standard_error(stats: SufficientStats) -> float:
    """The direct SE of the estimate ``stats`` describes."""
    if stats.kind == KIND_BINOMIAL:
        if stats.n <= 0:
            return 0.0
        p = stats.successes / stats.n
        return math.sqrt(max(p * (1.0 - p), 0.0) / stats.n)
    return _weighted_standard_error(stats, _stats_estimate(stats))


def _stats_estimate(stats: SufficientStats) -> float:
    """The yield estimate pooled statistics imply (degenerate streams
    snap to the exact edge, matching the single-run estimators)."""
    if stats.kind == KIND_BINOMIAL:
        return stats.successes / stats.n if stats.n else 0.0
    if stats.successes == 0:
        return 0.0
    if stats.successes == stats.n:
        return 1.0
    return stats.w_pass_sum / stats.w_sum if stats.w_sum else 0.0


def _weighted_standard_error(stats: SufficientStats,
                             estimate: float) -> float:
    """Delta-method SE of the self-normalized ratio from pooled sums.

    ``sum (w_norm (I - e))^2`` expands (``I^2 = I``) to
    ``((1 - 2e) sum_pass w^2 + e^2 sum w^2) / (sum w)^2``.
    """
    if stats.w_sum <= 0.0:
        return 0.0
    variance = ((1.0 - 2.0 * estimate) * stats.w_sq_pass_sum
                + estimate * estimate * stats.w_sq_sum)
    return math.sqrt(max(variance, 0.0)) / stats.w_sum


def _stats_ess(stats: SufficientStats) -> float:
    if stats.kind == KIND_BINOMIAL:
        return float(stats.n)
    if stats.w_sq_sum <= 0.0:
        return 0.0
    return (stats.w_sum * stats.w_sum) / stats.w_sq_sum


def _stats_interval(stats: SufficientStats, estimate: float,
                    level: float) -> Tuple[float, float]:
    """Recompute the confidence interval at ``level``: Wilson from the
    pooled ``k, N`` for binomial streams, delta-method normal with the
    rule-of-three degenerate fallback for weighted streams."""
    from ..statistics.intervals import normal_interval, wilson_interval
    if stats.kind == KIND_BINOMIAL:
        return wilson_interval(stats.successes, stats.n, level)
    se = _weighted_standard_error(stats, estimate)
    ci_low, ci_high = normal_interval(estimate, se, level)
    three = min(1.0, 3.0 / max(_stats_ess(stats), 1.0))
    if stats.successes == 0:
        ci_high = max(ci_high, three)
    elif stats.successes == stats.n:
        ci_low = min(ci_low, 1.0 - three)
    return (ci_low, ci_high)
