"""Plain operational Monte-Carlo behind the estimator interface.

This is the paper's verifier (Sec. 2, Eq. 6-7; N = 300 between optimizer
iterations) on the yieldsim pipeline: seeded standard-normal draws and
the per-spec pass/fail logic of the paper, plus Wilson confidence
intervals, telemetry, and optional parallel batch execution.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..evaluation.evaluator import Evaluator
from ..statistics.sampling import SampleSet
from .base import YieldEstimator
from .result import YieldResult
from .shard import ShardPlan
from .telemetry import PhaseTimer


class OperationalMC(YieldEstimator):
    """i.i.d. standard-normal sampling, binomial estimate, Wilson CI."""

    name = "mc"

    def estimate(self, evaluator: Evaluator, d: Mapping[str, float],
                 theta_per_spec: Mapping[str, Mapping[str, float]],
                 n_samples: int = 300, seed: Optional[int] = 2001,
                 worst_case: Optional[Mapping[str, object]] = None,
                 samples: Optional[SampleSet] = None,
                 shard: Optional[ShardPlan] = None) -> YieldResult:
        """``worst_case`` is accepted for interface uniformity and ignored.
        Pass an explicit ``samples`` set to reuse draws across designs
        (paired comparison).  With a ``shard``, this run draws only its
        own ``SeedSequence.spawn`` sub-stream of the logical
        ``n_samples`` draws (the 1-shard plan is the identity)."""
        report = self._new_report(n_samples)
        with PhaseTimer(report, "draw"):
            if samples is None:
                dim = evaluator.template.statistical_space.dim
                if shard is None:
                    samples = SampleSet.draw(n_samples, dim, seed=seed)
                else:
                    samples = SampleSet.draw(shard.count(n_samples), dim,
                                             seed=shard.seed_for(seed))
        report.n_samples = samples.n
        evaluation = self._evaluate_matrix(evaluator, d, theta_per_spec,
                                           samples.matrix, report)
        return self._binomial_result(evaluation, report, shard=shard)
