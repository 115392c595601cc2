"""Counted, cached performance evaluator.

Wraps a :class:`~repro.evaluation.template.CircuitTemplate` and

* counts every underlying simulation (Table 7 of the paper reports these
  counts; one "simulation" = one full testbench evaluation at a
  ``(d, s, theta)`` point, as an industrial flow would count netlist runs),
* memoizes results, so e.g. the repeated nominal-point evaluations of the
  worst-case search and the verification Monte-Carlo do not re-simulate.

A request may name the performances it needs (the verification
Monte-Carlo asks each worst-case corner only for the performances of the
specs checked there).  Each cache entry records what it measured: a
request is a hit only when its entry covers every requested performance;
otherwise the point is simulated again for the union of the requested
and the cached performances, which counts as one simulation and one
miss and is logged at DEBUG.

All algorithmic modules accept an :class:`Evaluator` rather than a raw
template, so simulation accounting is automatic and consistent.
"""

from __future__ import annotations

import logging
import math
from contextlib import contextmanager
from typing import (Collection, Dict, FrozenSet, Iterable, Iterator, List,
                    Mapping, Optional, Tuple)

import numpy as np

from .template import CircuitTemplate

_LOG = logging.getLogger(__name__)

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


#: What a cache entry measured: a set of performance names, or ``None``
#: for every performance (the entry of a full evaluation).
Measured = Optional[FrozenSet[str]]
#: A cache entry: the values and what they cover.
Entry = Tuple[Dict[str, float], Measured]


def _wanted(performances: Optional[Collection[str]]) -> Measured:
    return None if performances is None else frozenset(performances)


def _covers(measured: Measured, wanted: Measured) -> bool:
    """True when an entry that measured ``measured`` answers a request
    for ``wanted`` (``None`` on either side: every performance)."""
    return measured is None or (wanted is not None and wanted <= measured)


def _select(values: Mapping[str, float], wanted: Measured
            ) -> Dict[str, float]:
    """A copy of the requested part of ``values``."""
    if wanted is None:
        return dict(values)
    return {name: value for name, value in values.items() if name in wanted}


class Evaluator:
    """Counting/caching façade over a circuit template."""

    def __init__(self, template: CircuitTemplate, cache: bool = True):
        self.template = template
        self.cache_enabled = cache
        self._cache: Dict[Tuple, Entry] = {}
        #: cache writes collected by :meth:`recording` (None: off)
        self._journal: Optional[List[Tuple[Tuple, Entry]]] = None
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
                 theta: Mapping[str, float],
                 performances: Optional[Collection[str]] = None
                 ) -> Dict[str, float]:
        """The values of ``performances`` (``None``: every performance)
        at ``(d, s_hat, theta)``; see the module docstring for the cache
        rule."""
        self.request_count += 1
        wanted = _wanted(performances)
        if not self.cache_enabled:
            self.simulation_count += 1
            self.cache_misses += 1
            return self.template.evaluate(d, s_hat, theta, wanted)
        key = self._key(d, s_hat, theta)
        cached = self._cache.get(key)
        if cached is not None and _covers(cached[1], wanted):
            self.cache_hits += 1
            return _select(cached[0], wanted)
        run = self._widen(cached, wanted)
        result = self.template.evaluate(d, s_hat, theta, run)
        self.simulation_count += 1
        self.cache_misses += 1
        self._store(key, result, run)
        return _select(result, wanted)

    def _widen(self, cached: Optional[Entry], wanted: Measured) -> Measured:
        """What to simulate for ``wanted`` at a point whose cache entry
        ``cached`` (None: not cached) does not cover it: the request, or
        its union with what the entry measured."""
        if cached is None:
            return wanted
        measured = cached[1]
        lacking = sorted((wanted if wanted is not None else {
            p.name for p in self.template.performances}) - measured)
        _LOG.debug("%s: cached point lacks %s; simulating it again",
                   self.template.name, ", ".join(lacking))
        return None if wanted is None else measured | wanted

    def _store(self, key: Tuple, values: Mapping[str, float],
               measured: Measured) -> None:
        entry = (dict(values), measured)
        self._cache[key] = entry
        if self._journal is not None:
            self._journal.append((key, entry))

    def evaluate_batch(self, d: Mapping[str, float],
                       rows: List[np.ndarray],
                       theta: Mapping[str, float],
                       performances: Optional[Collection[str]] = None
                       ) -> List:
        """Evaluate many statistical points at one ``(d, theta)``, each
        for ``performances``.

        Returns one entry per row, in row order: the performance dict,
        or the exception the evaluation raised (never raised here — the
        caller owns fault handling; see
        :meth:`~repro.evaluation.template.CircuitTemplate.evaluate_batch`).

        Counter and cache semantics replicate the serial
        ``evaluate()``-per-row loop exactly: every row counts one
        request; rows the cache covers count as hits; every simulated row
        counts one simulation + one miss, and successful results enter
        the cache in row order.  Only *first-occurrence uncovered* rows
        go through the template's batched path, one call per distinct
        set of performances to simulate; a duplicate of a failed row
        re-attempts serially, exactly as the serial loop would (the
        failure left nothing in the cache).
        """
        wanted = _wanted(performances)
        if not self.cache_enabled:
            self.request_count += len(rows)
            self.simulation_count += len(rows)
            self.cache_misses += len(rows)
            return self.template.evaluate_batch(d, rows, theta, wanted)
        # The design and theta parts are the same for every row.
        dk = self._design_key(d) if rows else ()
        tk = self._theta_key(theta) if rows else ()
        keys = [(dk, self._sample_key(row), tk) for row in rows]
        todo: Dict[Measured, List[int]] = {}
        seen = set()
        for i, key in enumerate(keys):
            if key in seen:
                continue
            seen.add(key)
            cached = self._cache.get(key)
            if cached is None or not _covers(cached[1], wanted):
                todo.setdefault(self._widen(cached, wanted), []).append(i)
        produced: Dict[Tuple, Tuple[object, Measured]] = {}
        for run, members in todo.items():
            entries = self.template.evaluate_batch(
                d, [rows[i] for i in members], theta, run)
            produced.update((keys[i], (entry, run))
                            for i, entry in zip(members, entries))
        results: List = []
        for i, key in enumerate(keys):
            self.request_count += 1
            cached = self._cache.get(key)
            if cached is not None and _covers(cached[1], wanted):
                self.cache_hits += 1
                results.append(_select(cached[0], wanted))
                continue
            entry, run = produced.pop(key, (None, None))
            if entry is None:
                # Duplicate of a row whose batched attempt failed: the
                # serial loop would re-simulate it (nothing was cached),
                # so replicate that — including the repeated failure.
                run = self._widen(cached, wanted)
                try:
                    entry = self.template.evaluate(d, rows[i], theta, run)
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
            self._store(key, entry, run)
            results.append(_select(entry, wanted))
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
    @contextmanager
    def recording(self) -> Iterator[List[Tuple[Tuple, Entry]]]:
        """Collect every cache write made inside the block, in order —
        an entry simulated again for more performances included.  A pool
        worker records each task's writes and ships them to the parent's
        :meth:`absorb_cache`."""
        journal: List[Tuple[Tuple, Entry]] = []
        self._journal = journal
        try:
            yield journal
        finally:
            self._journal = None

    def absorb_cache(self, entries: Iterable[Tuple[Tuple, Entry]]
                     ) -> Tuple[int, int]:
        """Merge worker-produced cache writes into this cache, in order.

        Returns ``(new, duplicate)`` counts.  A write this cache already
        covers is a *duplicate*: serially it would have been a cache hit.
        Any other write is *new*, a simulation the parent would also have
        had to run serially (the parent entry it extends, if any, then
        holds the union of both).  Folding tasks in a deterministic order
        therefore reproduces the serial run's cache contents and its
        exact Table-7 counters.
        """
        new = duplicate = 0
        for key, (values, measured) in entries:
            cached = self._cache.get(key)
            if cached is not None and _covers(cached[1], measured):
                duplicate += 1
                continue
            if cached is not None:
                measured = self._widen(cached, measured)
                values = {**cached[0], **values}
            self._cache[key] = (dict(values), measured)
            new += 1
        return new, duplicate
