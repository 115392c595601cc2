"""Deterministic fault injection for testing the recovery paths.

:class:`FaultInjectingEvaluator` wraps any evaluator and raises scheduled
or probabilistic failures, so every branch of the fault-tolerance layer
— retry-with-jitter, count-as-fail, abort, checkpoint/resume under
faults — can be exercised without a flaky simulator:

* **probabilistic** mode (``rate > 0``): each evaluation point fails with
  probability ``rate``.  The decision is a pure function of the point
  digest and the seed — *not* of call order — so a resumed run, a cached
  re-request, or a differently-chunked parallel run sees exactly the same
  faults as an uninterrupted serial run.  Retries at jittered points hash
  differently, which is what lets a RETRY policy recover.
* **scheduled** mode (``schedule``): the listed 1-based request indices
  fail unconditionally.  Call-order-dependent by design; unit tests use
  it to hit a specific evaluation (e.g. "the third verification sample").

``error`` is the exception type (or zero-argument factory) to raise,
:class:`~repro.errors.ConvergenceError` by default.
"""

from __future__ import annotations

from typing import Callable, Collection, Dict, Iterable, Mapping, Optional

import numpy as np

from ..errors import ConvergenceError, ReproError
from ..evaluation.evaluator import EvaluatorWrapper
from .policy import point_digest


class FaultInjectingEvaluator(EvaluatorWrapper):
    """Evaluator wrapper raising deterministic, seeded faults."""

    def __init__(self, evaluator, rate: float = 0.0, seed: int = 0,
                 schedule: Iterable[int] = (),
                 error: Callable[[], BaseException] = None):
        if not 0.0 <= rate <= 1.0:
            raise ReproError(f"fault rate must be in [0, 1], got {rate}")
        super().__init__(evaluator)
        self.rate = float(rate)
        self.seed = int(seed)
        self.schedule = frozenset(int(i) for i in schedule)
        self._error = error or (
            lambda: ConvergenceError("injected fault: DC Newton solver "
                                     "diverged at a statistical sample"))
        #: faults raised so far
        self.injected_count = 0
        #: evaluate() requests seen so far (basis of scheduled faults)
        self.request_index = 0

    # -- fault decision -----------------------------------------------------------
    def _point_fails(self, d: Mapping[str, float], s_hat: np.ndarray,
                     theta: Mapping[str, float]) -> bool:
        if self.rate <= 0.0:
            return False
        digest = point_digest(d, s_hat, theta, salt=self.seed)
        return digest / 2.0 ** 32 < self.rate

    def _raise_fault(self) -> None:
        self.injected_count += 1
        raise self._error()

    # -- evaluator interface ------------------------------------------------------
    def evaluate(self, d: Mapping[str, float], s_hat: np.ndarray,
                 theta: Mapping[str, float],
                 performances: Optional[Collection[str]] = None
                 ) -> Dict[str, float]:
        self.request_index += 1
        if self.request_index in self.schedule or \
                self._point_fails(d, s_hat, theta):
            self._raise_fault()
        return self._inner.evaluate(d, s_hat, theta, performances)
