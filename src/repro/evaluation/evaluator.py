"""Counted, cached performance evaluator.

Wraps a :class:`~repro.evaluation.template.CircuitTemplate` and

* counts every underlying simulation (Table 7 of the paper reports these
  counts; one "simulation" = one full testbench evaluation at a
  ``(d, s, theta)`` point, as an industrial flow would count netlist runs),
* memoizes results, so e.g. the repeated nominal-point evaluations of the
  worst-case search and the verification Monte-Carlo do not re-simulate.

All algorithmic modules accept an :class:`Evaluator` rather than a raw
template, so simulation accounting is automatic and consistent.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..spec.specification import Spec
from .template import CircuitTemplate

#: Mantissa scale (2^40) used for cache-key quantization: values are keyed
#: by ``(round(mantissa * 2^40), exponent)``, i.e. rounded at a relative
#: resolution of 2^-40 ~ 9.1e-13 — coarse enough to absorb float
#: round-trip noise (~2.2e-16 relative), fine enough never to collide for
#: distinct finite-difference steps (1e-3 relative).  frexp + an integer
#: round is several times cheaper than the ``f"{v:.12e}"`` string
#: round-trip it replaces; this key is built on every single evaluation.
_MANTISSA_SCALE = float(1 << 40)


def _quantize(value: float):
    if not math.isfinite(value):
        # round() of NaN/inf raises; key on the raw float (inf compares
        # equal to itself, NaN never — matching the old string behavior).
        return value
    mantissa, exponent = math.frexp(value)
    return round(mantissa * _MANTISSA_SCALE), exponent


class Evaluator:
    """Counting/caching façade over a circuit template."""

    def __init__(self, template: CircuitTemplate, cache: bool = True):
        self.template = template
        self.cache_enabled = cache
        self._cache: Dict[Tuple, Dict[str, float]] = {}
        # Key-building hot path: freeze the design-name order and the
        # operating-parameter order once instead of re-deriving (and, for
        # theta, re-sorting) them on every evaluation.
        self._design_names: Tuple[str, ...] = tuple(template.design_names)
        try:
            self._theta_names: Optional[Tuple[str, ...]] = tuple(
                p.name for p in template.operating_range.parameters)
        except AttributeError:
            self._theta_names = None
        #: number of performance simulations actually run (cache misses)
        self.simulation_count = 0
        #: number of evaluate() requests (including cache hits)
        self.request_count = 0
        #: number of constraint evaluations (DC-only simulations)
        self.constraint_count = 0
        #: number of evaluate() requests answered from the cache
        self.cache_hits = 0
        #: number of evaluate() requests that had to simulate
        self.cache_misses = 0

    # -- core ------------------------------------------------------------------
    def _key(self, d: Mapping[str, float], s_hat: np.ndarray,
             theta: Mapping[str, float]) -> Tuple:
        return self._design_key(d), self._sample_key(s_hat), \
            self._theta_key(theta)

    def _design_key(self, d: Mapping[str, float]) -> Tuple:
        return tuple(_quantize(d[name]) for name in self._design_names)

    @staticmethod
    def _sample_key(s_hat: np.ndarray) -> Tuple:
        return tuple(_quantize(float(v))
                     for v in np.asarray(s_hat, dtype=float))

    def _theta_key(self, theta: Mapping[str, float]) -> Tuple:
        names = self._theta_names
        if names is not None and len(names) == len(theta):
            # Template-declared parameter order: no per-call sort, and the
            # names themselves need not be part of the key.
            try:
                return tuple(_quantize(theta[name]) for name in names)
            except KeyError:
                pass
        # Theta carries extra/unknown entries: fall back to the
        # order-independent named form.
        return tuple(sorted((k, _quantize(v)) for k, v in theta.items()))

    def evaluate(self, d: Mapping[str, float], s_hat: np.ndarray,
                 theta: Mapping[str, float]) -> Dict[str, float]:
        """All performance values at ``(d, s_hat, theta)``."""
        self.request_count += 1
        if not self.cache_enabled:
            self.simulation_count += 1
            self.cache_misses += 1
            return self.template.evaluate(d, s_hat, theta)
        key = self._key(d, s_hat, theta)
        hit = self._cache.get(key)
        if hit is not None:
            self.cache_hits += 1
            return dict(hit)
        result = self.template.evaluate(d, s_hat, theta)
        self.simulation_count += 1
        self.cache_misses += 1
        self._cache[key] = dict(result)
        return result

    def evaluate_batch(self, d: Mapping[str, float],
                       rows: List[np.ndarray],
                       theta: Mapping[str, float]) -> List:
        """Evaluate many statistical points at one ``(d, theta)``.

        Returns one entry per row, in row order: the performance dict,
        or the exception the evaluation raised (never raised here — the
        caller owns fault handling; see
        :meth:`~repro.evaluation.template.CircuitTemplate.evaluate_batch`).

        Counter and cache semantics replicate the serial
        ``evaluate()``-per-row loop exactly: every row counts one
        request; cache hits count as hits; every simulated row counts
        one simulation + one miss, and successful results enter the
        cache in row order.  Only *first-occurrence uncached* rows go
        through the template's batched path; a duplicate of a failed row
        re-attempts serially, exactly as the serial loop would (the
        failure left nothing in the cache).
        """
        if not self.cache_enabled:
            self.request_count += len(rows)
            self.simulation_count += len(rows)
            self.cache_misses += len(rows)
            return self.template.evaluate_batch(d, rows, theta)
        # The design and theta parts are the same for every row.
        dk = self._design_key(d) if rows else ()
        tk = self._theta_key(theta) if rows else ()
        keys = [(dk, self._sample_key(row), tk) for row in rows]
        todo: List[int] = []
        seen = set()
        for i, key in enumerate(keys):
            if key not in self._cache and key not in seen:
                seen.add(key)
                todo.append(i)
        produced: Dict[Tuple, object] = {}
        if todo:
            entries = self.template.evaluate_batch(
                d, [rows[i] for i in todo], theta)
            produced = {keys[i]: entry
                        for i, entry in zip(todo, entries)}
        results: List = []
        for i, key in enumerate(keys):
            self.request_count += 1
            hit = self._cache.get(key)
            if hit is not None:
                self.cache_hits += 1
                results.append(dict(hit))
                continue
            entry = produced.pop(key, None)
            if entry is None:
                # Duplicate of a row whose batched attempt failed: the
                # serial loop would re-simulate it (nothing was cached),
                # so replicate that — including the repeated failure.
                try:
                    entry = self.template.evaluate(d, rows[i], theta)
                except Exception as exc:
                    entry = exc
            if isinstance(entry, BaseException):
                # Serial parity: in the cached path ``evaluate`` bumps
                # simulation/miss only *after* the template returns, so
                # a raising evaluation counts the request alone.
                results.append(entry)
                continue
            self.simulation_count += 1
            self.cache_misses += 1
            self._cache[key] = dict(entry)
            results.append(dict(entry))
        return results

    def constraints(self, d: Mapping[str, float]) -> Dict[str, float]:
        """Functional constraint values c(d) (>= 0 feasible)."""
        self.constraint_count += 1
        return self.template.constraints(d)

    # -- conveniences -----------------------------------------------------------
    def performance(self, name: str, d: Mapping[str, float],
                    s_hat: np.ndarray,
                    theta: Mapping[str, float]) -> float:
        """One performance value."""
        return self.evaluate(d, s_hat, theta)[name]

    def margins(self, d: Mapping[str, float], s_hat: np.ndarray,
                theta_per_spec: Mapping[str, Mapping[str, float]]
                ) -> Dict[str, float]:
        """Signed spec margins, each evaluated at its own worst-case
        operating point (keyed by :func:`repro.spec.spec_key`)."""
        from ..spec.operating import spec_key
        result: Dict[str, float] = {}
        for spec in self.template.specs:
            key = spec_key(spec)
            values = self.evaluate(d, s_hat, theta_per_spec[key])
            result[key] = spec.margin(values[spec.performance])
        return result

    def reset_counters(self) -> None:
        """Zero the simulation counters (cache is kept)."""
        self.simulation_count = 0
        self.request_count = 0
        self.constraint_count = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def absorb_counts(self, simulations: int = 0, requests: int = 0,
                      constraint: int = 0, cache_hits: int = 0,
                      cache_misses: int = 0) -> None:
        """Fold counters produced elsewhere (e.g. by process-pool workers,
        each of which simulates against its own evaluator copy) into this
        evaluator's accounting, so Table-7 effort reports stay complete."""
        self.simulation_count += simulations
        self.request_count += requests
        self.constraint_count += constraint
        self.cache_hits += cache_hits
        self.cache_misses += cache_misses

    def clear_cache(self) -> None:
        self._cache.clear()

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    # -- worker-cache folding ----------------------------------------------------
    def cache_items_since(self, start: int
                          ) -> List[Tuple[Tuple, Dict[str, float]]]:
        """Cache entries inserted at position ``start`` or later, in
        insertion order (dicts preserve it).  Pool workers snapshot
        ``cache_size`` before a task and ship only the entries the task
        added."""
        return list(itertools.islice(self._cache.items(), start, None))

    def absorb_cache(self, entries: Iterable[Tuple[Tuple, Dict[str, float]]]
                     ) -> Tuple[int, int]:
        """Merge worker-produced cache entries into this cache, in order.

        Returns ``(new, duplicate)`` counts.  A *new* key is a simulation
        the parent would also have had to run serially; a *duplicate* is
        one the parent cache (or an earlier-folded worker) already holds —
        serially it would have been a cache hit.  Folding tasks in a
        deterministic order therefore reproduces the serial run's cache
        contents and its exact Table-7 counters.
        """
        new = duplicate = 0
        for key, values in entries:
            if key in self._cache:
                duplicate += 1
            else:
                self._cache[key] = dict(values)
                new += 1
        return new, duplicate
