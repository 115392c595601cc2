"""Sharded verification Monte-Carlo: sub-stream partitioning + merging.

One verification run's estimators are all *linear in their sample
streams* (binomial counts for MC/QMC, weight sums for self-normalized
IS), so a large-N verification can be split across machines and merged
exactly — the binding constraint at paper-scale N is a single machine's
wall clock, not the math.  This module provides both halves:

* :class:`ShardPlan` — a deterministic partition of one logical sample
  stream.  Plain MC and importance sampling give every shard an
  independent sub-stream via ``SeedSequence.spawn`` (the NumPy-blessed
  way to split a seed without correlations); Sobol QMC *skip-aheads*
  into the one scrambled sequence (``fast_forward``), so the shards
  together are literally the unsharded point set.  A ``1/1`` plan is
  the identity: it draws the unsharded stream bit-for-bit.

* :func:`merge_results` — pools the :class:`~repro.yieldsim.result.
  SufficientStats` of per-shard :class:`YieldResult` records: success
  counts for MC/QMC, rescaled weight sums ``sum w`` / ``sum w^2`` for
  IS, per-spec weighted moments via Chan's parallel-variance combine,
  and telemetry folded through :func:`merge_reports` /
  :class:`~repro.yieldsim.telemetry.SimulatorHealth`.  The pooled
  statistics are rendered by :meth:`YieldResult.from_stats`, the same
  rendering every estimator's direct run goes through (the Wilson
  interval from the pooled ``k, N``; the delta-method interval and ESS
  from the pooled sums).  Pooling one part is the identity, so a
  ``1/1`` shard-and-merge is bit-identical to the unsharded run.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ReproError
from .result import KIND_WEIGHTED, SpecMoments, SufficientStats, YieldResult
from .telemetry import RunReport

_SHARD_RE = re.compile(r"^\s*(\d+)\s*/\s*(\d+)\s*$")


@dataclass(frozen=True)
class ShardPlan:
    """One shard of a deterministically partitioned sample stream.

    ``index`` is 0-based; the CLI's ``--shard i/N`` syntax is 1-based
    (``--shard 1/4`` is ``ShardPlan(0, 4)``).
    """

    index: int
    total: int

    def __post_init__(self):
        if self.total < 1:
            raise ReproError(f"shard total must be >= 1, got {self.total}")
        if not 0 <= self.index < self.total:
            raise ReproError(
                f"shard index {self.index} outside [0, {self.total})")

    @classmethod
    def parse(cls, text: str) -> "ShardPlan":
        """Parse the CLI's 1-based ``i/N`` syntax."""
        match = _SHARD_RE.match(text)
        if not match:
            raise ReproError(
                f"shard spec {text!r} is not of the form i/N (e.g. 2/4)")
        i, total = int(match.group(1)), int(match.group(2))
        if not 1 <= i <= max(total, 1):
            raise ReproError(
                f"shard spec {text!r}: index must be in 1..{total}")
        return cls(index=i - 1, total=total)

    @property
    def label(self) -> str:
        """Human-readable 1-based ``i/N`` label."""
        return f"{self.index + 1}/{self.total}"

    def count(self, n_samples: int) -> int:
        """This shard's sample count out of ``n_samples`` total: the
        first ``n % total`` shards take one extra sample."""
        base, extra = divmod(n_samples, self.total)
        count = base + (1 if self.index < extra else 0)
        if count < 1:
            raise ReproError(
                f"shard {self.label} of {n_samples} samples is empty; "
                f"use at most {n_samples} shards")
        return count

    def offset(self, n_samples: int) -> int:
        """Index of this shard's first sample in the combined stream
        (the QMC skip-ahead distance)."""
        base, extra = divmod(n_samples, self.total)
        return self.index * base + min(self.index, extra)

    def check_seed(self, seed: Optional[int]) -> None:
        """Sharding a stream across machines requires an explicit seed —
        with ``None`` every shard would invent unrelated entropy."""
        if self.total > 1 and seed is None:
            raise ReproError(
                "sharded estimation needs an explicit seed; every shard "
                "must derive its sub-stream from the same root")

    def seed_for(self, seed: Optional[int]
                 ) -> Union[int, None, np.random.SeedSequence]:
        """The i.i.d. sub-stream seed of this shard.

        The identity plan (``total == 1``) returns ``seed`` unchanged,
        so a 1-shard run draws the unsharded stream bit-for-bit; larger
        plans return child ``index`` of ``SeedSequence(seed).spawn``.
        """
        if self.total == 1:
            return seed
        self.check_seed(seed)
        return np.random.SeedSequence(seed).spawn(self.total)[self.index]


# -- telemetry folding --------------------------------------------------------
def merge_reports(reports: Sequence[RunReport]) -> Optional[RunReport]:
    """Fold per-shard run reports into one: counters and phase times
    add, the degraded/incompatible flags OR together."""
    if not reports:
        return None
    merged = RunReport(estimator=reports[0].estimator)
    backends = []
    for report in reports:
        merged.add(report)
        merged.theta_groups = max(merged.theta_groups,
                                  report.theta_groups)
        merged.jobs = max(merged.jobs, report.jobs)
        if report.backend not in backends:
            backends.append(report.backend)
    merged.backend = backends[0] if len(backends) == 1 else "mixed"
    return merged


# -- merge algebra ------------------------------------------------------------
def _combine_moments(a: SpecMoments, b: SpecMoments) -> SpecMoments:
    """Chan's parallel combine of two weighted moment accumulators."""
    merged = SpecMoments(bad_weight=a.bad_weight + b.bad_weight)
    if a.weight <= 0.0:
        merged.weight, merged.mean, merged.m2 = b.weight, b.mean, b.m2
        return merged
    if b.weight <= 0.0:
        merged.weight, merged.mean, merged.m2 = a.weight, a.mean, a.m2
        return merged
    weight = a.weight + b.weight
    delta = b.mean - a.mean
    merged.weight = weight
    merged.mean = a.mean + delta * (b.weight / weight)
    merged.m2 = a.m2 + b.m2 + delta * delta * (a.weight * b.weight
                                               / weight)
    return merged


def _scaled(stats: SufficientStats, scale: float) -> SufficientStats:
    """``stats`` with every weight sum multiplied by ``scale`` (moment
    ``m2`` is linear in the weights; ``mean`` is scale-invariant)."""
    if scale == 1.0:
        return stats
    return replace(
        stats,
        w_sum=stats.w_sum * scale,
        w_sq_sum=stats.w_sq_sum * scale * scale,
        w_pass_sum=stats.w_pass_sum * scale,
        w_sq_pass_sum=stats.w_sq_pass_sum * scale * scale,
        spec={key: SpecMoments(weight=m.weight * scale, mean=m.mean,
                               m2=m.m2 * scale,
                               bad_weight=m.bad_weight * scale)
              for key, m in stats.spec.items()})


def merge_stats(parts: Sequence[SufficientStats]) -> SufficientStats:
    """Pool sufficient statistics over disjoint sample streams.

    Binomial streams pool by plain count addition.  Weighted streams
    are first brought to a common log scale (the largest ``log_shift``
    among the parts) so the rescaled weight sums add exactly.
    """
    if not parts:
        raise ReproError("merge_stats needs at least one part")
    kinds = {part.kind for part in parts}
    if len(kinds) != 1:
        raise ReproError(f"cannot merge mixed statistics kinds {kinds}")
    kind = parts[0].kind
    shift = max(part.log_shift for part in parts) \
        if kind == KIND_WEIGHTED else 0.0
    merged = SufficientStats(kind=kind, n=0, successes=0,
                             log_shift=shift)
    for part in parts:
        scaled = _scaled(part, math.exp(part.log_shift - shift)) \
            if kind == KIND_WEIGHTED else part
        merged.n += scaled.n
        merged.successes += scaled.successes
        merged.failed += scaled.failed
        merged.w_sum += scaled.w_sum
        merged.w_sq_sum += scaled.w_sq_sum
        merged.w_pass_sum += scaled.w_pass_sum
        merged.w_sq_pass_sum += scaled.w_sq_pass_sum
        for key, moments in scaled.spec.items():
            merged.spec[key] = _combine_moments(
                merged.spec.get(key, SpecMoments()), moments)
    return merged


def _check_provenance(results: Sequence[YieldResult]) -> Optional[int]:
    """Validate shard provenance consistency; returns the common shard
    total (None when the inputs carry no provenance, e.g. independent
    unsharded runs being pooled)."""
    totals = {r.shard_total for r in results if r.shard_total is not None}
    if not totals:
        return None
    if len(totals) != 1:
        raise ReproError(
            f"cannot merge shards of different partitions: totals "
            f"{sorted(totals)}")
    seen = {}
    for result in results:
        if result.shard_index is None:
            continue
        if result.shard_index in seen:
            raise ReproError(
                f"duplicate shard {result.shard_index + 1}/"
                f"{next(iter(totals))} in merge input")
        seen[result.shard_index] = result
    return next(iter(totals))


def merge_results(results: Sequence[YieldResult],
                  level: Optional[float] = None) -> YieldResult:
    """Combine per-shard yield results into the pooled estimate.

    All inputs must come from the same estimator.  The merged record is
    :meth:`YieldResult.from_stats` of the pooled statistics at ``level``
    (default: the shards' common ``ci_level``); telemetry folds through
    :func:`merge_reports` and the per-shard reports are retained as
    provenance.  ``merge_stats([s])`` is ``s`` bit for bit, so merging
    a single result re-renders it unchanged at its own level — the
    1-shard merge is bit-identical to the unsharded run.
    """
    results = list(results)
    if not results:
        raise ReproError("merge_results needs at least one result")
    estimators = {result.estimator for result in results}
    if len(estimators) != 1:
        raise ReproError(
            f"cannot merge results of different estimators "
            f"{sorted(estimators)}")
    levels = {result.ci_level for result in results}
    if level is None:
        if len(levels) != 1:
            raise ReproError(
                f"shards carry different ci_levels {sorted(levels)}; "
                f"pass an explicit level")
        level = results[0].ci_level
    shard_total = _check_provenance(results)
    reports = [result.report for result in results
               if result.report is not None]
    return YieldResult.from_stats(
        results[0].estimator,
        merge_stats([result.stats for result in results]), level,
        sum(result.simulations for result in results),
        merge_reports(reports), shard_total=shard_total,
        merged_from=len(results), shard_reports=reports)
