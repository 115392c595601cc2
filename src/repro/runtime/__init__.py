"""Fault-tolerant optimization runtime.

The optimizer, the yield estimators, and the CLI all route their
evaluator calls and loop control through this layer:

* :class:`FaultPolicy` / :class:`FaultAction` / :class:`RetryConfig` —
  classify evaluator exceptions against the :mod:`repro.errors` taxonomy
  and decide retry-with-jitter, count-as-fail, or abort,
* :class:`FaultTolerantEvaluator` — the policy-applying evaluator facade
  (lenient mode: failed samples become NaN records that count as
  spec-violating; strict mode: exhausted retries propagate),
* :class:`RunBudget` — wall-clock deadline and max-simulation budget,
  enforced inside the Fig. 6 loop; exhaustion yields a partial
  ``OptimizationResult`` with a ``stop_reason`` instead of an exception,
* :func:`save_checkpoint` / :func:`load_checkpoint` /
  :class:`OptimizerCheckpoint` — per-iteration JSON checkpointing and
  deterministic resume,
* :class:`FaultInjectingEvaluator` — seeded, deterministic fault
  injection for testing every recovery path.
"""

from __future__ import annotations

from .budget import (RunBudget, STOP_ABORTED_PREFIX, STOP_CONVERGED,
                     STOP_DEADLINE, STOP_MAX_ITERATIONS, STOP_SIM_BUDGET)
from .checkpoint import (CHECKPOINT_VERSION, CheckpointError,
                         OptimizerCheckpoint, load_checkpoint,
                         peek_checkpoint, record_from_dict, record_to_dict,
                         save_checkpoint, splice_merged_result)
from .faults import FaultInjectingEvaluator
from .policy import (DEFAULT_ACTIONS, FaultAction, FaultPolicy,
                     RetryConfig, point_digest)
from .tolerant import FaultTolerantEvaluator

__all__ = [
    "CHECKPOINT_VERSION", "CheckpointError", "DEFAULT_ACTIONS",
    "FaultAction", "FaultInjectingEvaluator", "FaultPolicy",
    "FaultTolerantEvaluator", "OptimizerCheckpoint", "RetryConfig",
    "RunBudget", "STOP_ABORTED_PREFIX", "STOP_CONVERGED", "STOP_DEADLINE",
    "STOP_MAX_ITERATIONS", "STOP_SIM_BUDGET", "load_checkpoint",
    "peek_checkpoint", "point_digest", "record_from_dict",
    "record_to_dict",
    "save_checkpoint", "splice_merged_result",
]
