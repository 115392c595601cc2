"""A fault-tolerant facade over :class:`~repro.evaluation.evaluator.Evaluator`.

:class:`FaultTolerantEvaluator` wraps any evaluator-shaped object and
applies a :class:`~repro.runtime.policy.FaultPolicy` to every
``evaluate()`` call:

* RETRY-class errors re-evaluate at a jittered point (bounded attempts,
  exponentially growing perturbation; see
  :class:`~repro.runtime.policy.RetryConfig`),
* COUNT-AS-FAIL-class errors (and exhausted retries) either return a NaN
  record of the requested performances in **lenient** mode — NaN fails
  every spec comparison, so the sample counts as spec-violating
  downstream without any special-casing — or re-raise in **strict** mode,
* ABORT-class errors always propagate.

The optimizer runs verification Monte-Carlo in lenient mode (a
non-convergent sample is just a failed sample) and model building in
strict mode (a NaN gradient would silently poison the spec-wise linear
models; better to abort with a partial trace).

Everything else — counters, cache, template access — delegates to the
wrapped evaluator through the shared
:class:`~repro.evaluation.evaluator.EvaluatorWrapper` base, whose
``performance``/``margins`` conveniences run through this facade's own
``evaluate()`` and so through the policy.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Collection, Dict, Mapping, Optional

import numpy as np

from ..counters import Counters, view
from ..evaluation.evaluator import EvaluatorWrapper
from .policy import FaultAction, FaultPolicy

#: fail-mode values
MODE_RAISE = "raise"
MODE_NAN = "nan"


class FaultTolerantEvaluator(EvaluatorWrapper):
    """Policy-applying evaluator facade (see module docstring)."""

    failed_evaluations = view("failed_evaluations",
                              "evaluations that ended count-as-fail")
    retried_evaluations = view("retried_evaluations",
                               "retry attempts issued")
    recovered_evaluations = view("recovered_evaluations",
                                 "evaluations a retry recovered")

    def __init__(self, evaluator, policy: Optional[FaultPolicy] = None,
                 fail_mode: str = MODE_RAISE):
        super().__init__(evaluator)
        self.policy = policy or FaultPolicy()
        self.fail_mode = fail_mode
        #: the policy's outcome counts, read through the views above
        self.counts = Counters("failed_evaluations", "retried_evaluations",
                               "recovered_evaluations")

    def counters(self) -> Dict[str, Counters]:
        """The wrapped stack's effort counts and the policy's, by group
        (see :mod:`repro.counters`)."""
        return {**self._inner.counters(), "policy": self.counts}

    # -- modes --------------------------------------------------------------------
    @contextmanager
    def lenient(self):
        """Within this context, count-as-fail returns NaN performances."""
        previous = self.fail_mode
        self.fail_mode = MODE_NAN
        try:
            yield self
        finally:
            self.fail_mode = previous

    # -- policy-applying evaluation ----------------------------------------------
    def _failure_values(self, performances: Optional[Collection[str]]
                        ) -> Dict[str, float]:
        return {name: float("nan") for name in
                self._inner.template.requested_performances(performances)}

    def evaluate(self, d: Mapping[str, float], s_hat: np.ndarray,
                 theta: Mapping[str, float],
                 performances: Optional[Collection[str]] = None
                 ) -> Dict[str, float]:
        try:
            return self._inner.evaluate(d, np.asarray(s_hat, dtype=float),
                                        theta, performances)
        except Exception as exc:
            error = exc
        # Outside the handler, so a retry's error is not chained to it.
        return self.resume_after_failure(d, s_hat, theta, error,
                                         performances)

    def resume_after_failure(self, d: Mapping[str, float],
                             s_hat: np.ndarray,
                             theta: Mapping[str, float],
                             error: BaseException,
                             performances: Optional[Collection[str]] = None
                             ) -> Dict[str, float]:
        """The fault policy after a first attempt of a request for
        ``performances`` failed with ``error``: classify, retry at
        jittered points, count, and return the values, NaN performances
        (lenient) or raise (strict).

        :meth:`evaluate` hands its own failed first attempt here, and the
        batched engine, which evaluates first attempts in bulk, hands
        each sample whose attempt raised.  The jitter is a deterministic
        function of ``(d, s_hat, theta, attempt)``, so a batched run's
        fault handling is bit- and counter-identical to the serial run's.
        """
        retry = self.policy.retry
        attempt = 0
        exc: BaseException = error
        while True:
            action = self.policy.classify(exc)
            if action is FaultAction.ABORT:
                raise exc
            if action is FaultAction.RETRY and attempt < retry.attempts:
                self.counts["retried_evaluations"] += 1
                point = self.policy.jittered(d, s_hat, theta, attempt)
                attempt += 1
                try:
                    values = self._inner.evaluate(d, point, theta,
                                                  performances)
                    self.counts["recovered_evaluations"] += 1
                    return values
                except Exception as new_exc:
                    exc = new_exc
                    continue
            # COUNT_AS_FAIL, or RETRY with the attempt budget spent.
            self.counts["failed_evaluations"] += 1
            if self.fail_mode == MODE_RAISE:
                raise exc
            return self._failure_values(performances)
