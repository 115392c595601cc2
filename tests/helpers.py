"""Shared test fixtures: cheap analytic circuit templates.

The core-algorithm tests (worst-case search, linearization, estimator,
optimizer) need a black box ``f(d, s, theta)`` whose true worst-case
points, gradients and yields are known in closed form.  These fake
templates provide that without any circuit simulation, so the algorithm
tests run in milliseconds and assert against exact analytic answers.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

import numpy as np

from repro.evaluation.template import CircuitTemplate, DesignParameter
from repro.pdk.process import GlobalVariation, Process
from repro.pdk.generic035 import NMOS, PMOS
from repro.spec.operating import OperatingParameter, OperatingRange
from repro.spec.specification import Performance, Spec
from repro.statistics.space import StatisticalSpace


def tiny_process(n_globals: int = 2) -> Process:
    """A minimal process with ``n_globals`` independent unit-free globals."""
    targets = ["vth_nmos", "vth_pmos", "beta_nmos", "beta_pmos", "res"]
    variations = tuple(
        GlobalVariation(f"g{i}", targets[i % len(targets)], sigma=1.0)
        for i in range(n_globals))
    return Process(
        name="tiny",
        nmos=NMOS,
        pmos=PMOS,
        vdd_nominal=3.3,
        temp_nominal=27.0,
        global_variations=variations,
        global_correlation=np.eye(n_globals),
    )


def trivial_operating_range() -> OperatingRange:
    """One operating axis with a degenerate-ish span."""
    return OperatingRange([OperatingParameter("temp", 0.0, 100.0, 27.0)])


class LinearTemplate(CircuitTemplate):
    """Analytic template: every performance is affine in (d, s, theta).

        f(d, s, theta) = offset + cd . d + cs . s + ct * theta_temp

    Worst-case distances, gradients, and linearized yields are exact, so
    algorithm tests can assert closed-form answers.  One constraint
    ``c(d) = d0 - min_d0 >= 0`` bounds the feasible region.
    """

    name = "linear-fake"

    def __init__(self, offset: float = 5.0,
                 cd: Optional[Dict[str, float]] = None,
                 cs: Optional[np.ndarray] = None,
                 ct: float = 0.0,
                 bound: float = 0.0,
                 kind: str = ">=",
                 min_d0: float = 0.0):
        process = tiny_process(2)
        space = StatisticalSpace(process, with_global=True)
        self.offset = offset
        self.cd = cd if cd is not None else {"d0": 1.0, "d1": 0.0}
        self.cs = np.asarray(cs if cs is not None else [1.0, 0.5])
        self.ct = ct
        self.min_d0 = min_d0
        parameters = [
            DesignParameter("d0", -10.0, 10.0, 1.0),
            DesignParameter("d1", -10.0, 10.0, 0.0),
        ]
        super().__init__(
            parameters,
            [Performance("f", "")],
            [Spec("f", kind, bound)],
            trivial_operating_range(),
            space,
            constraint_names=["c0"],
        )
        self.evaluations = 0

    def value(self, d: Mapping[str, float], s_hat: np.ndarray,
              theta: Mapping[str, float]) -> float:
        result = self.offset + self.ct * theta["temp"]
        for name, slope in self.cd.items():
            result += slope * d[name]
        result += float(self.cs @ np.asarray(s_hat))
        return result

    def evaluate(self, d, s_hat, theta, performances=None):
        self.evaluations += 1
        return {"f": self.value(d, s_hat, theta)}

    def constraints(self, d, theta=None):
        return {"c0": d["d0"] - self.min_d0}


class QuadraticTemplate(CircuitTemplate):
    """Analytic tent-shaped (mismatch-type) template:

        f(d, s) = peak - curvature * (s0 - s1)^2 + slope_d * d0

    mimicking Fig. 1: a ridge along the neutral line ``s0 = s1`` and
    degradation along the mismatch line ``s0 = -s1``.  The worst-case
    points of the spec ``f >= bound`` are at ``s = +-(t, -t, 0, ...)`` with
    ``2 curvature (2 t^2)... = peak - bound`` exactly:
    ``t = sqrt((peak + slope_d*d0 - bound) / (4 curvature))``.
    """

    name = "quadratic-fake"

    def __init__(self, peak: float = 10.0, curvature: float = 1.0,
                 bound: float = 2.0, slope_d: float = 0.0,
                 dim: int = 3):
        process = tiny_process(dim)
        space = StatisticalSpace(process, with_global=True)
        self.peak = peak
        self.curvature = curvature
        self.slope_d = slope_d
        parameters = [DesignParameter("d0", -10.0, 10.0, 0.0)]
        super().__init__(
            parameters,
            [Performance("f", "")],
            [Spec("f", ">=", bound)],
            trivial_operating_range(),
            space,
            constraint_names=["c0"],
        )

    def expected_wc_norm(self, d0: float = 0.0) -> float:
        """Exact ||s_wc|| of the boundary point."""
        margin = self.peak + self.slope_d * d0 - self.specs[0].bound
        # minimum-norm point on f = bound lies along (1, -1)/sqrt(2):
        # f = peak - curvature*(2t/sqrt(2))^2 ... with s = t*(1,-1)/sqrt(2),
        # (s0 - s1) = 2t/sqrt(2) = t*sqrt(2), so f = peak - 2*curvature*t^2.
        return math.sqrt(margin / (2.0 * self.curvature))

    def evaluate(self, d, s_hat, theta, performances=None):
        s_hat = np.asarray(s_hat)
        diff = s_hat[0] - s_hat[1]
        return {"f": self.peak - self.curvature * diff * diff
                + self.slope_d * d["d0"]}

    def constraints(self, d, theta=None):
        return {"c0": 1.0}
