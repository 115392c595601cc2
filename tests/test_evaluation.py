"""Unit tests for the evaluation layer: evaluator, gradients, template."""

import numpy as np
import pytest

from helpers import LinearTemplate, QuadraticTemplate
from repro.errors import ConvergenceError, ReproError
from repro.evaluation import (Evaluator, constraint_jacobian,
                              performance_gradient_d, performance_gradient_s)
from repro.evaluation.template import DesignParameter
from repro.runtime import FaultInjectingEvaluator, FaultTolerantEvaluator

THETA = {"temp": 27.0}


class TestDesignParameter:
    def test_clip(self):
        p = DesignParameter("w", 1.0, 10.0, 5.0)
        assert p.clip(0.0) == 1.0
        assert p.clip(20.0) == 10.0
        assert p.clip(7.0) == 7.0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ReproError):
            DesignParameter("w", 5.0, 1.0, 3.0)
        with pytest.raises(ReproError):
            DesignParameter("w", 1.0, 5.0, 9.0)


class TestTemplateBasics:
    def test_design_vector_roundtrip(self):
        t = LinearTemplate()
        d = {"d0": 2.0, "d1": -1.0}
        assert t.design_dict(t.design_vector(d)) == d

    def test_clip_design(self):
        t = LinearTemplate()
        clipped = t.clip_design({"d0": 99.0, "d1": -99.0})
        assert clipped == {"d0": 10.0, "d1": -10.0}

    def test_initial_design_uses_parameter_initials(self):
        t = LinearTemplate()
        assert t.initial_design() == {"d0": 1.0, "d1": 0.0}

    def test_spec_for(self):
        t = LinearTemplate()
        assert t.spec_for("f").performance == "f"
        with pytest.raises(ReproError):
            t.spec_for("ghost")

    def test_unknown_spec_performance_rejected(self):
        """A spec that references an undeclared performance must fail at
        template construction time."""
        from repro.evaluation.template import CircuitTemplate
        from repro.spec import Spec
        from repro.spec.specification import Performance

        template = LinearTemplate()
        with pytest.raises(ReproError):
            CircuitTemplate.__init__(
                template, template.design_parameters, [Performance("f")],
                [Spec("ghost", ">=", 0.0)], template.operating_range,
                template.statistical_space, [])


class TestEvaluatorCounting:
    def test_cache_hits_do_not_resimulate(self):
        t = LinearTemplate()
        ev = Evaluator(t)
        s = np.zeros(2)
        ev.evaluate({"d0": 1.0, "d1": 0.0}, s, THETA)
        ev.evaluate({"d0": 1.0, "d1": 0.0}, s, THETA)
        assert ev.request_count == 2
        assert ev.simulation_count == 1
        assert t.evaluations == 1
        assert ev.cache_size == 1

    def test_distinct_points_simulate(self):
        t = LinearTemplate()
        ev = Evaluator(t)
        s = np.zeros(2)
        ev.evaluate({"d0": 1.0, "d1": 0.0}, s, THETA)
        ev.evaluate({"d0": 1.1, "d1": 0.0}, s, THETA)
        ev.evaluate({"d0": 1.0, "d1": 0.0}, s + 0.5, THETA)
        ev.evaluate({"d0": 1.0, "d1": 0.0}, s, {"temp": 50.0})
        assert ev.simulation_count == 4

    def test_reset_counters_keeps_cache(self):
        t = LinearTemplate()
        ev = Evaluator(t)
        ev.evaluate({"d0": 1.0, "d1": 0.0}, np.zeros(2), THETA)
        ev.reset_counters()
        assert ev.simulation_count == 0
        ev.evaluate({"d0": 1.0, "d1": 0.0}, np.zeros(2), THETA)
        assert ev.simulation_count == 0  # served from cache

    def test_constraint_counting(self):
        t = LinearTemplate()
        ev = Evaluator(t)
        ev.constraints({"d0": 1.0, "d1": 0.0})
        ev.constraints({"d0": 1.0, "d1": 0.0})
        assert ev.constraint_count == 2

    def test_margins_use_per_spec_theta(self):
        t = LinearTemplate(ct=0.1)  # f grows with temperature
        ev = Evaluator(t)
        theta_map = {"f>=": {"temp": 0.0}}
        margins = ev.margins({"d0": 1.0, "d1": 0.0}, np.zeros(2), theta_map)
        # f = 5 + 1*d0 + 0.1*0 = 6, bound 0 -> margin 6
        assert margins["f>="] == pytest.approx(6.0)


class TestWrapperConveniences:
    """``performance``/``margins`` live once on the shared evaluator
    base and run through the wrapper's own ``evaluate``, so injected
    faults and the fault policy reach them."""

    D = {"d0": 1.0, "d1": 0.0}

    def test_injected_fault_reaches_performance(self):
        injector = FaultInjectingEvaluator(Evaluator(LinearTemplate()),
                                           schedule=[1])
        with pytest.raises(ConvergenceError):
            injector.performance("f", self.D, np.zeros(2), THETA)
        assert injector.injected_count == 1

    def test_policy_recovers_margins(self):
        guarded = FaultTolerantEvaluator(FaultInjectingEvaluator(
            Evaluator(LinearTemplate()), schedule=[1]))
        margins = guarded.margins(self.D, np.zeros(2), {"f>=": THETA})
        assert margins["f>="] == pytest.approx(6.0, abs=1e-4)
        assert guarded.retried_evaluations == 1
        assert guarded.recovered_evaluations == 1

    @pytest.mark.parametrize("wrap", [
        lambda ev: FaultInjectingEvaluator(ev, rate=1.0),
        FaultTolerantEvaluator,
    ], ids=["injecting", "tolerant"])
    def test_wrapper_refuses_to_batch(self, wrap):
        # The inner evaluator's batch would skip the wrapper's faults or
        # policy, so a wrapper does not hand it out.
        ev = Evaluator(LinearTemplate())
        wrapper = wrap(ev)
        with pytest.raises(ReproError, match="does not batch"):
            wrapper.evaluate_batch(self.D, [np.zeros(2), np.ones(2)], THETA)
        assert ev.request_count == 0


class TestGradients:
    def test_gradient_s_matches_analytic(self):
        t = LinearTemplate(cs=np.array([2.0, -3.0]))
        ev = Evaluator(t)
        grad = performance_gradient_s(ev, "f", {"d0": 1.0, "d1": 0.0},
                                      np.zeros(2), THETA)
        assert grad == pytest.approx(np.array([2.0, -3.0]), rel=1e-6)

    def test_gradient_d_matches_analytic(self):
        t = LinearTemplate(cd={"d0": 4.0, "d1": -0.5})
        ev = Evaluator(t)
        grad = performance_gradient_d(ev, "f", {"d0": 1.0, "d1": 2.0},
                                      np.zeros(2), THETA)
        assert grad["d0"] == pytest.approx(4.0, rel=1e-5)
        assert grad["d1"] == pytest.approx(-0.5, rel=1e-5)

    def test_gradient_d_at_upper_bound_steps_backwards(self):
        t = LinearTemplate(cd={"d0": 4.0, "d1": 0.0})
        ev = Evaluator(t)
        grad = performance_gradient_d(ev, "f", {"d0": 10.0, "d1": 0.0},
                                      np.zeros(2), THETA)
        assert grad["d0"] == pytest.approx(4.0, rel=1e-5)

    def test_quadratic_gradient_vanishes_on_neutral_line(self):
        t = QuadraticTemplate(dim=3)
        ev = Evaluator(t)
        grad = performance_gradient_s(ev, "f", {"d0": 0.0},
                                      np.array([1.0, 1.0, 0.0]), THETA,
                                      step=1e-5)
        # On the neutral line s0 == s1 the tent is flat to first order:
        # every forward-difference slope is O(step), i.e. essentially zero.
        assert grad[2] == pytest.approx(0.0, abs=1e-6)
        assert abs(grad[0]) < 1e-4
        assert abs(grad[1]) < 1e-4

    def test_constraint_jacobian_matches_analytic(self):
        t = LinearTemplate(min_d0=0.5)
        ev = Evaluator(t)
        c0, jac = constraint_jacobian(ev, {"d0": 1.0, "d1": 0.0})
        assert c0["c0"] == pytest.approx(0.5)
        assert jac["c0"]["d0"] == pytest.approx(1.0, rel=1e-5)
        assert jac["c0"]["d1"] == pytest.approx(0.0, abs=1e-9)
