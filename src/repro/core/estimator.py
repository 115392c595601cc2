"""Monte-Carlo yield estimation on the linearized models (Eq. 17-20).

A fixed set of ``N`` standard-normal samples (drawn once, Sec. 5.3) is
pushed through the spec-wise linear models.  The per-sample statistical
part ``f_bar(d_f, s_j) - f_b`` is precomputed and stored; a design change
only shifts every sample of model ``i`` by the *same* scalar
``grad_d . (d - d_f)`` (Eq. 20), so re-estimating the yield after a design
move is a pure array comparison with zero simulations.

For the coordinate search the structure is even stronger: along one
coordinate each (sample, model) pair passes on a half-line of the
coordinate value, so a sample's overall pass set is an interval and the
exact 1-D yield profile is a piecewise-constant function whose maximum is
found by an O(N log N) breakpoint sweep — no grid, no tolerance
(:meth:`LinearizedYieldEstimator.maximize_coordinate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError
from ..statistics.sampling import SampleSet
from .linear_model import SpecLinearModel


@dataclass
class CoordinateMaximum:
    """Result of the exact 1-D yield maximization along one coordinate."""

    value: float  # best coordinate value
    yield_estimate: float  # yield at the maximum
    interval: Tuple[float, float]  # the full maximizing plateau


class LinearizedYieldEstimator:
    """Yield estimate over a fixed sample set and fixed linear models."""

    def __init__(self, models: Sequence[SpecLinearModel],
                 samples: SampleSet):
        if not models:
            raise ReproError("need at least one spec model")
        self.models: Tuple[SpecLinearModel, ...] = tuple(models)
        self.samples = samples
        self.d_ref: Dict[str, float] = dict(models[0].d_ref)
        # (N, n_models): statistical margin of sample j under model i at
        # d = d_ref.  This is the stored constant of Eq. 20.
        self._stat = np.column_stack([
            model.statistical_part(samples.matrix) for model in self.models])
        # (n_models, n_design): design-space slopes.
        self._design_names = list(self.d_ref.keys())
        self._slopes = np.array([
            [model.grad_d[name] for name in self._design_names]
            for model in self.models])

    # -- bookkeeping -------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        return self.samples.n

    def _shifts(self, d: Mapping[str, float]) -> np.ndarray:
        """Per-model margin shift ``grad_d . (d - d_ref)`` (Eq. 20)."""
        delta = np.array([d[name] - self.d_ref[name]
                          for name in self._design_names])
        return self._slopes @ delta

    # -- estimates ----------------------------------------------------------------
    def margins(self, d: Mapping[str, float]) -> np.ndarray:
        """(N, n_models) model margins at design ``d``."""
        return self._stat + self._shifts(d)[None, :]

    def pass_matrix(self, d: Mapping[str, float]) -> np.ndarray:
        """(N, n_models) boolean pass matrix."""
        return self.margins(d) >= 0.0

    def yield_estimate(self, d: Mapping[str, float]) -> float:
        """The linearized-model yield ``Y_bar`` (Eq. 17-18)."""
        return float(np.mean(np.all(self.pass_matrix(d), axis=1)))

    def bad_sample_fraction(self, d: Mapping[str, float]
                            ) -> Dict[str, float]:
        """Per-model fraction of failing samples — the per-mille
        "bad samples" rows of the paper's result tables."""
        fails = ~self.pass_matrix(d)
        return {model.key: float(np.mean(fails[:, i]))
                for i, model in enumerate(self.models)}

    def bad_samples_per_spec(self, d: Mapping[str, float]
                             ) -> Dict[str, float]:
        """Like :meth:`bad_sample_fraction` but with mirror models folded
        into their primary spec (a sample is bad for a spec if *either*
        linearization fails it)."""
        fails = ~self.pass_matrix(d)
        result: Dict[str, float] = {}
        for i, model in enumerate(self.models):
            key = model.key.split("#", 1)[0]
            column = fails[:, i]
            if key in result:
                result[key] = np.logical_or(result[key], column)
            else:
                result[key] = column
        return {key: float(np.mean(value)) for key, value in result.items()}

    # -- exact coordinate maximization ----------------------------------------------
    def maximize_coordinate(self, d: Mapping[str, float], name: str,
                            lower: float, upper: float
                            ) -> CoordinateMaximum:
        """Exactly maximize ``Y_bar(d with d[name] = x)`` over
        ``x in [lower, upper]`` (the inner problem of Eq. 19).

        Builds each sample's pass interval from the per-model half-lines
        and sweeps the interval endpoints.  Ties are broken toward the
        plateau containing (or nearest) the current value, which keeps the
        coordinate search from wandering along flat yield regions.
        """
        if upper < lower:
            raise ReproError(f"empty coordinate range for {name!r}")
        k = self._design_names.index(name)
        current = float(d[name])
        # Margin of sample j under model i as a function of x:
        #   m_ij(x) = base_ij + slope_i * (x - ref_k)
        partial = dict(d)
        partial[name] = self.d_ref[name]  # remove coordinate-k contribution
        base = self._stat + self._shifts(partial)[None, :]
        slopes = self._slopes[:, k]
        ref = self.d_ref[name]

        n, m = base.shape
        lo = np.full(n, lower)
        hi = np.full(n, upper)
        for i in range(m):
            slope = slopes[i]
            if slope == 0.0:
                # Pass/fail independent of x.
                failing = base[:, i] < 0.0
                lo[failing] = np.inf  # empty interval
                continue
            crossing = ref - base[:, i] / slope
            if slope > 0.0:
                lo = np.maximum(lo, crossing)
            else:
                hi = np.minimum(hi, crossing)
        valid = (lo <= hi) & (lo <= upper) & (hi >= lower)
        if not np.any(valid):
            return CoordinateMaximum(current, 0.0, (current, current))
        starts = np.clip(lo[valid], lower, upper)
        ends = np.clip(hi[valid], lower, upper)
        # Sweep: +1 at interval start, -1 just after interval end.
        events = np.concatenate([
            np.column_stack([starts, np.ones_like(starts)]),
            np.column_stack([ends, -np.ones_like(ends)]),
        ])
        # Sort by position; at equal positions, starts (+1) before ends
        # (-1) because intervals are closed.
        order = np.lexsort((-events[:, 1], events[:, 0]))
        events = events[order]
        # Running interval count after each event; the maximizing plateau
        # begins at the first start event whose running count attains the
        # maximum over start events (ends can never open a plateau).
        counts = np.cumsum(events[:, 1]).astype(np.int64)
        start_counts = np.where(events[:, 1] > 0, counts, -1)
        best_count = int(start_counts.max())
        idx = int(np.argmax(start_counts == best_count))
        next_x = events[idx + 1, 0] if idx + 1 < len(events) else upper
        best_interval = (events[idx, 0], next_x)
        a, b = best_interval
        b = min(b, upper)
        a = min(max(a, lower), b)
        if a <= current <= b:
            best_x = current
        elif current < a:
            best_x = a
        else:
            best_x = b
        return CoordinateMaximum(float(best_x), best_count / n,
                                 (float(a), float(b)))
