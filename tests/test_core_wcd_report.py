"""Tests for the worst-case-distance yield report."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from helpers import LinearTemplate
from repro.core import (find_all_worst_case_points, partial_yield,
                        wcd_yield_report)
from repro.core.worst_case import WorstCaseResult
from repro.evaluation import Evaluator
from repro.spec import Spec
from repro.yieldsim import OperationalMC

THETA = {"temp": 27.0}


def wc(key, beta):
    return WorstCaseResult(
        spec=Spec(key.rstrip("<>="), ">=", 0.0), s_wc=np.array([beta]),
        beta_wc=beta, gradient=np.array([1.0]), g_wc=0.0, g_nominal=beta,
        on_boundary=True, iterations=1, method="test")


class TestPartialYield:
    def test_matches_gaussian_cdf(self):
        assert partial_yield(0.0) == pytest.approx(0.5)
        assert partial_yield(3.0) == pytest.approx(norm.cdf(3.0))
        assert partial_yield(-2.0) == pytest.approx(norm.cdf(-2.0))

    def test_two_sided(self):
        assert partial_yield(0.0, two_sided=True) == pytest.approx(0.0)
        assert partial_yield(3.0, two_sided=True) == \
            pytest.approx(2 * norm.cdf(3.0) - 1)

    @given(beta=st.floats(-8, 8))
    @settings(max_examples=40, deadline=None)
    def test_two_sided_never_exceeds_one_sided(self, beta):
        assert partial_yield(beta, two_sided=True) <= \
            partial_yield(beta) + 1e-12


class TestReport:
    def _report(self):
        return wcd_yield_report({
            "a>=": wc("a>=", 3.0),
            "b>=": wc("b>=", 0.5),
            "c>=": wc("c>=", 2.0),
        })

    def test_bounds_are_ordered(self):
        report = self._report()
        assert report.lower_bound <= report.independent_estimate \
            <= report.upper_bound + 1e-12

    def test_upper_bound_is_weakest_spec(self):
        report = self._report()
        assert report.upper_bound == pytest.approx(norm.cdf(0.5))

    def test_dominant_loss(self):
        report = self._report()
        assert report.dominant_loss().key == "b>="

    def test_summary_renders(self):
        text = self._report().summary()
        assert "beta_wc" in text
        assert "b>=" in text
        assert "total yield in" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wcd_yield_report({})

    @given(betas=st.lists(st.floats(-4, 6), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_bounds_property(self, betas):
        report = wcd_yield_report({
            f"s{i}>=": wc(f"s{i}>=", beta)
            for i, beta in enumerate(betas)})
        # 1 - (1 - x) != x at the ulp level, so compare with a tolerance.
        assert 0.0 <= report.lower_bound <= report.upper_bound + 1e-12
        assert report.upper_bound <= 1.0
        assert report.lower_bound - 1e-12 <= report.independent_estimate


class TestAgainstMonteCarlo:
    def test_linear_template_wcd_yield_matches_mc(self):
        """For an affine performance the Phi(beta) estimate IS the exact
        yield; check it against the sampled one."""
        t = LinearTemplate(offset=1.2, cs=np.array([1.0, 0.5]))
        ev = Evaluator(t)
        theta_map = {"f>=": THETA}
        worst_case = find_all_worst_case_points(
            ev, {"d0": 0.0, "d1": 0.0}, theta_map)
        report = wcd_yield_report(worst_case)
        mc = OperationalMC().estimate(ev, {"d0": 0.0, "d1": 0.0},
                                      theta_map, n_samples=4000, seed=5)
        assert report.independent_estimate == pytest.approx(
            mc.estimate, abs=0.02)
