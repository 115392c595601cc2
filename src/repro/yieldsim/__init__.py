"""Pluggable yield-estimation subsystem.

One interface (:class:`YieldEstimator` -> :class:`YieldResult`), three
estimators, one parallel batch engine underneath:

* :class:`OperationalMC` — the paper's Eq. 6-7 verifier (i.i.d. sampling,
  Wilson intervals); the default, and the reference the others are
  validated against,
* :class:`MeanShiftIS`  — mixture importance sampling centered on the
  Eq. 8 worst-case points, with self-normalized likelihood-ratio weights
  and ESS diagnostics; the winner near 0 %/100 % yield,
* :class:`SobolQMC`     — scrambled low-discrepancy sampling via
  ``SampleSet.draw_sobol``; the winner at moderate yields on smooth
  integrands,

* :class:`BatchExecutor` / :class:`ExecutionConfig` — serial or
  pooled execution on the one process pool (:class:`PoolHandle`) with
  chunking, a per-task timeout, in-parent re-runs, and results and
  counters identical to serial regardless of worker count,
* :class:`RunReport` — JSON-serializable per-run telemetry (simulations,
  cache hits, wall time per phase),
* :class:`ShardPlan` / :func:`merge_results` — deterministic sub-stream
  partitioning of one verification run across machines and the exact
  merge of the per-shard results (pooled sufficient statistics, folded
  telemetry); see :mod:`repro.yieldsim.shard`.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ReproError
from .base import SampleEvaluation, YieldEstimator
from .executor import (BatchExecutor, BatchOutcome, ExecutionConfig,
                       PoolHandle)
from .importance import MeanShiftIS, shifts_from_worst_case
from .operational import OperationalMC
from .qmc import SobolQMC
from .result import SpecMoments, SufficientStats, YieldResult
from .shard import ShardPlan, merge_reports, merge_results, merge_stats
from .telemetry import PhaseTimer, RunReport, SimulatorHealth

#: Registered estimators by CLI short name.
ESTIMATORS = {
    OperationalMC.name: OperationalMC,
    MeanShiftIS.name: MeanShiftIS,
    SobolQMC.name: SobolQMC,
}


def make_estimator(name: str, jobs: int = 1,
                   chunk_size: Optional[int] = None,
                   timeout_s: Optional[float] = None,
                   **kwargs) -> YieldEstimator:
    """Build a registered estimator with an execution configuration.

    ``name`` is one of ``mc`` / ``is`` / ``qmc``; extra keyword arguments
    go to the estimator constructor.
    """
    try:
        cls = ESTIMATORS[name]
    except KeyError:
        raise ReproError(
            f"unknown estimator {name!r}; choose from "
            f"{', '.join(sorted(ESTIMATORS))}")
    execution = ExecutionConfig(jobs=jobs, chunk_size=chunk_size,
                                timeout_s=timeout_s)
    return cls(execution=execution, **kwargs)


__all__ = [
    "BatchExecutor", "BatchOutcome", "ESTIMATORS", "ExecutionConfig",
    "MeanShiftIS", "OperationalMC", "PhaseTimer", "PoolHandle",
    "RunReport", "SampleEvaluation", "ShardPlan", "SimulatorHealth",
    "SobolQMC", "SpecMoments", "SufficientStats", "YieldEstimator",
    "YieldResult", "make_estimator", "merge_reports",
    "merge_results", "merge_stats", "shifts_from_worst_case",
]
