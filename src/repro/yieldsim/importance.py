"""Mean-shift importance sampling centered on the Eq. 8 worst-case points.

Plain Monte-Carlo needs ~ ``1/Y`` samples to see a single failing (or at
high yield, passing) sample, which is hopeless in the near-0 %/100 %
regimes the paper's ablations land in.  But the optimizer already
computes, per spec, the most likely point on the spec boundary (the
worst-case point ``s_wc`` of Eq. 8) — exactly the mean shift classic
ISLE-style importance sampling wants: sample around the boundary where
the pass/fail transition happens, then undo the shift with
likelihood-ratio weights.

Proposal: an equal-weight Gaussian **mixture** with unit covariance — one
component per usable worst-case point plus a defensive component at the
origin (which bounds the weights by the component count, taming weight
degeneracy).  Components get a balanced deterministic sample allocation,
so results are seed-reproducible and independent of worker count.  The
estimate is **self-normalized**:

    Y_hat = sum(w_j I_j) / sum(w_j),   w_j = phi(s_j) / q(s_j)

with a delta-method standard error and the effective sample size
``ESS = (sum w)^2 / sum w^2`` reported as the honesty diagnostic.  When no
sample lands in the rare region at all, the interval falls back to a
rule-of-three bound on the ESS instead of reporting a zero-width CI.
The estimator accumulates only the weight sums and per-spec weighted
moments; :meth:`~repro.yieldsim.result.YieldResult.from_stats` renders
the estimate, interval and ESS from them, as it does for a shard merge.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np
from scipy.special import logsumexp

from ..errors import ReproError
from ..evaluation.evaluator import Evaluator
from ..statistics.sampling import SampleSet
from .base import SampleEvaluation, YieldEstimator
from .result import (KIND_WEIGHTED, SpecMoments, SufficientStats,
                     YieldResult)
from .shard import ShardPlan
from .telemetry import PhaseTimer, RunReport

#: Worst-case points beyond this many sigmas are not worth a mixture
#: component: the yield loss they guard is < ~1e-9 and their samples
#: would only dilute the budget.
SHIFT_BETA_MAX = 6.0

#: Two shifts closer than this (Euclidean) collapse into one component.
SHIFT_DEDUP_ATOL = 1e-6


def shifts_from_worst_case(worst_case: Mapping[str, object],
                           beta_max: float = SHIFT_BETA_MAX
                           ) -> List[np.ndarray]:
    """Extract usable mean-shift vectors from Eq. 8 worst-case results.

    Accepts any mapping to objects with ``s_wc`` / ``beta_wc`` /
    ``on_boundary`` attributes (``repro.core.worst_case.WorstCaseResult``).
    Unreachable (clamped) results and near-origin points are skipped;
    near-duplicates are merged.
    """
    shifts: List[np.ndarray] = []
    for wc in worst_case.values():
        if not getattr(wc, "on_boundary", False):
            continue
        if abs(getattr(wc, "beta_wc", np.inf)) > beta_max:
            continue
        s_wc = np.asarray(wc.s_wc, dtype=float)
        if float(np.linalg.norm(s_wc)) < 1e-9:
            continue
        if any(float(np.linalg.norm(s_wc - known)) < SHIFT_DEDUP_ATOL
               for known in shifts):
            continue
        shifts.append(s_wc)
    return shifts


class MeanShiftIS(YieldEstimator):
    """Self-normalized mixture importance sampling with worst-case shifts."""

    name = "is"

    def __init__(self, execution=None, ci_level: float = 0.95,
                 shifts: Optional[Sequence[np.ndarray]] = None,
                 include_origin: bool = True,
                 beta_max: float = SHIFT_BETA_MAX):
        super().__init__(execution=execution, ci_level=ci_level)
        self.fixed_shifts = [np.asarray(s, dtype=float) for s in shifts] \
            if shifts is not None else None
        self.include_origin = include_origin
        self.beta_max = beta_max

    # -- proposal ---------------------------------------------------------------
    def _components(self, dim: int,
                    worst_case: Optional[Mapping[str, object]]
                    ) -> List[np.ndarray]:
        if self.fixed_shifts is not None:
            shifts = list(self.fixed_shifts)
        elif worst_case:
            shifts = shifts_from_worst_case(worst_case, self.beta_max)
        else:
            shifts = []
        components = [np.zeros(dim)] if self.include_origin else []
        components.extend(shifts)
        if not components:
            raise ReproError(
                "MeanShiftIS needs at least one mixture component: pass "
                "worst_case results or explicit shifts, or keep "
                "include_origin=True")
        for mu in components:
            if mu.shape != (dim,):
                raise ReproError(
                    f"shift of shape {mu.shape} does not match the "
                    f"statistical dimension {dim}")
        return components

    @staticmethod
    def _draw(components: List[np.ndarray], n: int, dim: int,
              seed: Optional[int]) -> np.ndarray:
        """Balanced deterministic allocation: component ``i`` receives
        ``n // K`` samples (+1 for the first ``n % K``)."""
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, dim))
        k = len(components)
        base, extra = divmod(n, k)
        row = 0
        for i, mu in enumerate(components):
            count = base + (1 if i < extra else 0)
            z[row:row + count] += mu
            row += count
        return z

    @staticmethod
    def _log_weights(matrix: np.ndarray,
                     components: List[np.ndarray]) -> np.ndarray:
        """``log(phi(s) / q(s))`` up to a constant (the self-normalized
        estimator is invariant to it)."""
        log_q = np.stack([-0.5 * np.sum((matrix - mu) ** 2, axis=1)
                          for mu in components], axis=1)
        log_p = -0.5 * np.sum(matrix ** 2, axis=1)
        return log_p - logsumexp(log_q, axis=1) + np.log(len(components))

    # -- estimation -------------------------------------------------------------
    def estimate(self, evaluator: Evaluator, d: Mapping[str, float],
                 theta_per_spec: Mapping[str, Mapping[str, float]],
                 n_samples: int = 300, seed: Optional[int] = 2001,
                 worst_case: Optional[Mapping[str, object]] = None,
                 samples: Optional[SampleSet] = None,
                 shard: Optional[ShardPlan] = None) -> YieldResult:
        """With a ``shard``, this run draws its ``SeedSequence.spawn``
        sub-stream and performs the balanced component allocation over
        its own samples only; the likelihood-ratio weights are
        per-sample functions of the (shared, deterministic) mixture, so
        shard results pool exactly.  Pass explicit ``samples`` to reuse
        a matrix (weights are still computed from the mixture)."""
        dim = evaluator.template.statistical_space.dim
        report = self._new_report(n_samples)
        with PhaseTimer(report, "draw"):
            components = self._components(dim, worst_case)
            if samples is not None:
                matrix = np.asarray(samples.matrix, dtype=float)
            elif shard is None:
                matrix = self._draw(components, n_samples, dim, seed)
            else:
                matrix = self._draw(components, shard.count(n_samples),
                                    dim, shard.seed_for(seed))
            log_w = self._log_weights(matrix, components)
        report.n_samples = matrix.shape[0]
        evaluation = self._evaluate_matrix(evaluator, d, theta_per_spec,
                                           matrix, report)
        with PhaseTimer(report, "reduce"):
            result = self._weighted_result(evaluation, log_w, report,
                                           shard=shard)
        return result

    def _weighted_result(self, evaluation: SampleEvaluation,
                         log_w: np.ndarray, report: RunReport,
                         shard: Optional[ShardPlan] = None
                         ) -> YieldResult:
        """The self-normalized weight sums and per-spec weighted moments
        at this stream's log scale."""
        n = log_w.shape[0]
        if n == 0:
            # An empty stream (zero-width shard) has no weights to scale:
            # all-zero statistics, rendered as the estimate 0 with the
            # degenerate full interval.
            return self._result(
                SufficientStats(kind=KIND_WEIGHTED, n=0, successes=0),
                report, shard)
        log_shift = float(np.max(log_w))
        w = np.exp(log_w - log_shift)
        w_sum = float(np.sum(w))
        w_norm = w / w_sum

        moments = {}
        for key, values in evaluation.spec_values.items():
            # Failed (NaN) samples keep their weight in the yield and
            # bad-fraction sums (they fail every spec) but are excluded
            # from the performance moments, which describe the evaluable
            # population only.
            finite = np.isfinite(values)
            w_finite = float(np.sum(w_norm[finite]))
            if w_finite > 0.0:
                w_cond = w_norm[finite] / w_finite
                mean = float(w_cond @ values[finite])
                var = float(w_cond @ (values[finite] - mean) ** 2)
            else:
                mean, var = 0.0, 0.0
            finite_weight = float(np.sum(w[finite]))
            moments[key] = SpecMoments(
                weight=finite_weight, mean=mean,
                m2=max(var, 0.0) * finite_weight,
                bad_weight=float(
                    np.sum(w[~evaluation.spec_pass[key]])))
        passing = evaluation.indicator
        stats = SufficientStats(
            kind=KIND_WEIGHTED, n=n,
            successes=int(np.count_nonzero(passing)),
            failed=int(np.count_nonzero(evaluation.failed)),
            log_shift=log_shift,
            w_sum=w_sum,
            w_sq_sum=float(np.sum(w * w)),
            w_pass_sum=float(np.sum(w[passing])),
            w_sq_pass_sum=float(np.sum(w[passing] ** 2)),
            spec=moments)
        return self._result(stats, report, shard)
