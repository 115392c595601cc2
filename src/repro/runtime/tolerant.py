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
wrapped evaluator, so the facade drops into any call site that accepts
an :class:`Evaluator`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Collection, Dict, Mapping, Optional

import numpy as np

from .policy import FaultAction, FaultPolicy

#: fail-mode values
MODE_RAISE = "raise"
MODE_NAN = "nan"


class FaultTolerantEvaluator:
    """Policy-applying evaluator facade (see module docstring)."""

    def __init__(self, evaluator, policy: Optional[FaultPolicy] = None,
                 fail_mode: str = MODE_RAISE):
        self._inner = evaluator
        self.policy = policy or FaultPolicy()
        self.fail_mode = fail_mode
        #: evaluations that ended count-as-fail (lenient: NaN returned;
        #: strict: the error re-raised after classification)
        self.failed_evaluations = 0
        #: individual retry attempts issued
        self.retried_evaluations = 0
        #: evaluations that failed at least once but succeeded on a retry
        self.recovered_evaluations = 0

    # -- delegation ---------------------------------------------------------------
    def __getattr__(self, name):
        if name == "_inner":  # guard pickling/copying before __init__ ran
            raise AttributeError(name)
        return getattr(self._inner, name)

    @property
    def inner(self):
        """The wrapped evaluator."""
        return self._inner

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

    @contextmanager
    def strict(self):
        """Within this context, count-as-fail re-raises."""
        previous = self.fail_mode
        self.fail_mode = MODE_RAISE
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
                self.retried_evaluations += 1
                point = self.policy.jittered(d, s_hat, theta, attempt)
                attempt += 1
                try:
                    values = self._inner.evaluate(d, point, theta,
                                                  performances)
                    self.recovered_evaluations += 1
                    return values
                except Exception as new_exc:
                    exc = new_exc
                    continue
            # COUNT_AS_FAIL, or RETRY with the attempt budget spent.
            self.failed_evaluations += 1
            if self.fail_mode == MODE_RAISE:
                raise exc
            return self._failure_values(performances)

    # -- conveniences routed through the policy ----------------------------------
    def performance(self, name: str, d: Mapping[str, float],
                    s_hat: np.ndarray,
                    theta: Mapping[str, float]) -> float:
        return self.evaluate(d, s_hat, theta)[name]

    def margins(self, d: Mapping[str, float], s_hat: np.ndarray,
                theta_per_spec: Mapping[str, Mapping[str, float]]
                ) -> Dict[str, float]:
        from ..spec.operating import spec_key
        result: Dict[str, float] = {}
        for spec in self._inner.template.specs:
            key = spec_key(spec)
            values = self.evaluate(d, s_hat, theta_per_spec[key])
            result[key] = spec.margin(values[spec.performance])
        return result
