"""Unit tests for the Monte-Carlo verifier and the full optimizer loop on
analytic templates (fast, closed-form ground truth)."""

import numpy as np
import pytest
from scipy.stats import norm

from helpers import LinearTemplate, tiny_process
from repro.core.optimizer import (OptimizerConfig, OptimizationResult,
                                  YieldOptimizer)
from repro.evaluation import Evaluator
from repro.evaluation.template import CircuitTemplate, DesignParameter
from repro.spec import OperatingParameter, OperatingRange, Spec
from repro.spec.specification import Performance
from repro.statistics import SampleSet, StatisticalSpace
from repro.yieldsim import OperationalMC

THETA = {"temp": 27.0}


class TwoSpecTemplate(CircuitTemplate):
    """Two affine performances with a design trade-off and one constraint.

    f1 = d0 + s0           (spec f1 >= 0: improves with d0)
    f2 = 4 - d0 + 0.5 s1   (spec f2 >= 0: degrades with d0)
    c0 = 2 - d0            (feasibility: d0 <= 2)

    With s ~ N(0, I): yield(d0) = Phi(d0) * Phi((4 - d0) / 0.5), which
    increases up to d0 ~ 2.6; the feasibility constraint caps the search
    at d0 = 2, so the constrained optimum is the constraint boundary.
    """

    name = "two-spec-fake"

    def __init__(self):
        space = StatisticalSpace(tiny_process(2), with_global=True)
        super().__init__(
            [DesignParameter("d0", -5.0, 5.0, 0.0)],
            [Performance("f1"), Performance("f2")],
            [Spec("f1", ">=", 0.0), Spec("f2", ">=", 0.0)],
            OperatingRange([OperatingParameter("temp", 0.0, 100.0, 27.0)]),
            space,
            ["c0"],
        )

    def evaluate(self, d, s_hat, theta, performances=None):
        s_hat = np.asarray(s_hat)
        return {"f1": d["d0"] + s_hat[0],
                "f2": 4.0 - d["d0"] + 0.5 * s_hat[1]}

    def constraints(self, d, theta=None):
        return {"c0": 2.0 - d["d0"]}

    def true_yield(self, d0):
        return norm.cdf(d0) * norm.cdf((4.0 - d0) / 0.5)


class TestOperationalMonteCarlo:
    def test_yield_matches_closed_form(self):
        t = TwoSpecTemplate()
        ev = Evaluator(t)
        theta_map = {"f1>=": THETA, "f2>=": THETA}
        result = OperationalMC().estimate(ev, {"d0": 1.0}, theta_map,
                                          n_samples=4000, seed=1)
        assert result.estimate == pytest.approx(
            t.true_yield(1.0), abs=0.02)

    def test_bad_fractions_per_spec(self):
        t = TwoSpecTemplate()
        ev = Evaluator(t)
        theta_map = {"f1>=": THETA, "f2>=": THETA}
        result = OperationalMC().estimate(ev, {"d0": 0.0}, theta_map,
                                          n_samples=4000, seed=2)
        assert result.bad_fraction["f1>="] == pytest.approx(0.5, abs=0.03)
        assert result.bad_fraction["f2>="] == pytest.approx(0.0, abs=1e-3)

    def test_shared_theta_shares_simulations(self):
        t = TwoSpecTemplate()
        ev = Evaluator(t, cache=False)
        theta_map = {"f1>=": THETA, "f2>=": THETA}  # same corner
        result = OperationalMC().estimate(ev, {"d0": 1.0}, theta_map,
                                          n_samples=100, seed=3)
        assert result.simulations == 100  # one run covers both specs

    def test_distinct_thetas_cost_more(self):
        t = TwoSpecTemplate()
        ev = Evaluator(t, cache=False)
        theta_map = {"f1>=": {"temp": 0.0}, "f2>=": {"temp": 100.0}}
        result = OperationalMC().estimate(ev, {"d0": 1.0}, theta_map,
                                          n_samples=100, seed=4)
        assert result.simulations == 200

    def test_performance_statistics_recorded(self):
        t = TwoSpecTemplate()
        ev = Evaluator(t)
        theta_map = {"f1>=": THETA, "f2>=": THETA}
        result = OperationalMC().estimate(ev, {"d0": 1.5}, theta_map,
                                          n_samples=3000, seed=5)
        assert result.performance_mean["f1>="] == pytest.approx(1.5,
                                                                abs=0.05)
        assert result.performance_std["f1>="] == pytest.approx(1.0,
                                                               abs=0.05)
        assert result.performance_std["f2>="] == pytest.approx(0.5,
                                                               abs=0.03)

    def test_reused_sample_set(self):
        t = TwoSpecTemplate()
        ev = Evaluator(t)
        theta_map = {"f1>=": THETA, "f2>=": THETA}
        samples = SampleSet.draw(500, 2, seed=6)
        a = OperationalMC().estimate(ev, {"d0": 1.0}, theta_map,
                                     samples=samples)
        b = OperationalMC().estimate(ev, {"d0": 1.0}, theta_map,
                                     samples=samples)
        assert a.estimate == b.estimate

    def test_standard_error(self):
        t = TwoSpecTemplate()
        ev = Evaluator(t)
        theta_map = {"f1>=": THETA, "f2>=": THETA}
        result = OperationalMC().estimate(ev, {"d0": 2.0}, theta_map,
                                          n_samples=300, seed=7)
        assert 0.0 <= result.standard_error <= 0.05


class TestOptimizerOnAnalyticTemplate:
    def _config(self, **overrides):
        base = dict(n_samples_linear=4000, n_samples_verify=500,
                    max_iterations=6, seed=11, trust_radius=0.0,
                    multistart=1)
        base.update(overrides)
        return OptimizerConfig(**base)

    def test_reaches_near_optimal_yield(self):
        t = TwoSpecTemplate()
        result = YieldOptimizer(t, self._config()).run()
        best = max(t.true_yield(d0) for d0 in np.linspace(-5, 2, 200))
        assert result.final.yield_mc >= best - 0.03
        # The constrained optimum is the constraint boundary d0 = 2.
        assert 1.5 < result.d_final["d0"] <= 2.0 + 1e-9

    def test_records_structure(self):
        t = TwoSpecTemplate()
        result = YieldOptimizer(t, self._config(max_iterations=2)).run()
        assert result.records[0].index == 0
        assert result.records[0].gamma is None
        assert result.records[1].gamma is not None
        assert set(result.records[0].margins) == {"f1>=", "f2>="}
        assert result.total_simulations > 0
        assert result.final is result.records[-1]
        assert result.initial is result.records[0]

    def test_linear_estimate_tracks_true_yield(self):
        """Sec. 5.2 claim: the linearized estimate is within 1-2 % of the
        Monte-Carlo yield (exact here because the template is affine)."""
        t = TwoSpecTemplate()
        result = YieldOptimizer(t, self._config(max_iterations=3)).run()
        for record in result.records:
            if record.yield_mc is not None:
                assert record.yield_linear == pytest.approx(
                    record.yield_mc, abs=0.04)

    def test_constraint_respected(self):
        t = TwoSpecTemplate()
        result = YieldOptimizer(t, self._config()).run()
        assert result.d_final["d0"] <= 2.0 + 1e-6

    def test_no_constraints_ablation_ignores_feasibility(self):
        """Table 3 mechanics: without constraints the search may leave the
        feasible region (here: exceed d0 = 2 chasing total yield)."""
        t = TwoSpecTemplate()
        result = YieldOptimizer(
            t, self._config(use_constraints=False)).run()
        assert result.d_final["d0"] > 2.0

    def test_nominal_ablation_still_runs(self):
        t = TwoSpecTemplate()
        result = YieldOptimizer(
            t, self._config(linearize_at="nominal", max_iterations=3)).run()
        # For an affine template the nominal tangent is exact, so the
        # ablation still optimizes fine — the difference only appears for
        # nonlinear (e.g. quadratic) performances, tested on circuits.
        assert result.final.yield_mc > 0.9

    def test_verify_disabled(self):
        t = TwoSpecTemplate()
        result = YieldOptimizer(
            t, self._config(verify=False, max_iterations=2)).run()
        assert all(r.yield_mc is None for r in result.records)
