"""Unit tests for the worst-case point search (Eq. 8) on analytic templates."""

import logging
import math
import re

import numpy as np
import pytest
from scipy import optimize
from scipy.optimize._numdiff import approx_derivative

from helpers import LinearTemplate, QuadraticTemplate
from repro.core import worst_case
from repro.evaluation import Evaluator
from repro.core.worst_case import (BETA_MAX, _boundary_tolerance,
                                   _slsqp_fallback,
                                   find_all_worst_case_points,
                                   find_worst_case_point)
from repro.runtime.faults import FaultInjectingEvaluator
from repro.yieldsim import executor
from repro.yieldsim.executor import unwrap_pool_stack

THETA = {"temp": 27.0}
D = {"d0": 1.0, "d1": 0.0}


class TestLinearPerformance:
    """For f = offset + cs.s with spec f >= bound, the exact worst-case
    distance is (f0 - bound)/||cs|| and s_wc = -(f0-bound) cs/||cs||^2."""

    def test_satisfied_spec_distance_and_point(self):
        t = LinearTemplate(offset=5.0, cs=np.array([3.0, 4.0]), bound=0.0)
        ev = Evaluator(t)
        wc = find_worst_case_point(ev, t.specs[0], D, THETA)
        f0 = 5.0 + 1.0  # offset + d0
        expected_beta = f0 / 5.0  # ||cs|| = 5
        assert wc.on_boundary
        assert wc.beta_wc == pytest.approx(expected_beta, rel=1e-3)
        expected_point = -f0 * np.array([3.0, 4.0]) / 25.0
        assert wc.s_wc == pytest.approx(expected_point, rel=1e-2)

    def test_violated_spec_has_negative_distance(self):
        t = LinearTemplate(offset=-3.0, cs=np.array([1.0, 0.0]), bound=0.0)
        ev = Evaluator(t)
        wc = find_worst_case_point(ev, t.specs[0], D, THETA)
        # f0 = -3 + 1 = -2, boundary at s0 = +2 -> beta = -2.
        assert wc.beta_wc == pytest.approx(-2.0, rel=1e-3)
        assert not wc.nominal_satisfied

    def test_upper_bound_spec(self):
        t = LinearTemplate(offset=1.0, cs=np.array([1.0, 0.0]),
                           bound=4.0, kind="<=")
        ev = Evaluator(t)
        wc = find_worst_case_point(ev, t.specs[0], D, THETA)
        # f0 = 2, upper bound 4 -> boundary at s0 = +2 -> beta = +2.
        assert wc.beta_wc == pytest.approx(2.0, rel=1e-3)
        assert wc.nominal_satisfied

    def test_gradient_is_normalized_performance_gradient(self):
        t = LinearTemplate(cs=np.array([2.0, -1.0]), bound=0.0, kind="<=")
        ev = Evaluator(t)
        wc = find_worst_case_point(ev, t.specs[0], D, THETA)
        # normalized g = -f, so grad_s g = -cs.
        assert wc.gradient == pytest.approx(np.array([-2.0, 1.0]), rel=1e-4)

    def test_unreachable_spec_is_clamped(self):
        t = LinearTemplate(offset=1000.0, cs=np.array([1.0, 1.0]),
                           bound=0.0)
        ev = Evaluator(t)
        wc = find_worst_case_point(ev, t.specs[0], D, THETA)
        assert not wc.on_boundary
        assert wc.beta_wc == pytest.approx(BETA_MAX)

    def test_warm_start_converges_faster(self):
        t = LinearTemplate(offset=5.0, cs=np.array([3.0, 4.0]))
        ev = Evaluator(t)
        cold = find_worst_case_point(ev, t.specs[0], D, THETA)
        warm = find_worst_case_point(ev, t.specs[0], D, THETA,
                                     s_start=cold.s_wc)
        assert warm.iterations <= cold.iterations
        assert warm.beta_wc == pytest.approx(cold.beta_wc, rel=1e-6)


class TestQuadraticPerformance:
    """The tent-shaped template mimics CMRR (Fig. 1): worst-case points sit
    on the mismatch line at an exactly known radius."""

    def test_finds_mismatch_line_boundary(self):
        t = QuadraticTemplate(peak=10.0, curvature=1.0, bound=2.0)
        ev = Evaluator(t)
        wc = find_worst_case_point(ev, t.specs[0], {"d0": 0.0}, THETA,
                                   seed=3)
        assert wc.on_boundary
        assert abs(wc.beta_wc) == pytest.approx(t.expected_wc_norm(),
                                                rel=1e-2)
        # The point lies on the mismatch line: s0 ~ -s1, s2 ~ 0.
        s = wc.s_wc
        assert s[0] == pytest.approx(-s[1], abs=0.05)
        assert s[2] == pytest.approx(0.0, abs=0.05)

    def test_mirror_point_is_equally_bad(self):
        t = QuadraticTemplate()
        ev = Evaluator(t)
        wc = find_worst_case_point(ev, t.specs[0], {"d0": 0.0}, THETA,
                                   seed=3)
        f_wc = ev.performance("f", {"d0": 0.0}, wc.s_wc, THETA)
        f_mirror = ev.performance("f", {"d0": 0.0}, -wc.s_wc, THETA)
        assert f_mirror == pytest.approx(f_wc, rel=1e-9)


class TestAllSpecs:
    def test_keys_cover_all_specs(self):
        t = LinearTemplate()
        ev = Evaluator(t)
        theta_map = {"f>=": THETA}
        results = find_all_worst_case_points(ev, D, theta_map)
        assert set(results) == {"f>="}

    def test_previous_results_warm_start(self):
        t = LinearTemplate()
        ev = Evaluator(t)
        theta_map = {"f>=": THETA}
        first = find_all_worst_case_points(ev, D, theta_map)
        again = find_all_worst_case_points(ev, D, theta_map, previous=first)
        assert again["f>="].beta_wc == pytest.approx(
            first["f>="].beta_wc, rel=1e-6)


# -- the SLSQP fallback -------------------------------------------------------
#: SLSQP's default finite-difference step (its ``eps`` option).
SCIPY_SLSQP_EPS = np.sqrt(np.finfo(float).eps)

#: The folded-cascode case whose fallback ends at SLSQP's iteration limit:
#: spec ft>= at the hot, low-supply corner of the initial design.
FC_THETA = {"temp": 125.0, "vdd": 3.0}


class _RecordingOptimize:
    """Stands in for the module's ``optimize``: keeps the equality
    constraint and every Jacobian it returns.  ``drop_jac`` removes the
    explicit ``jac`` so SLSQP differences the constraint itself."""

    def __init__(self, drop_jac=False):
        self.drop_jac = drop_jac
        self.boundary = None
        self.jac = None
        self.jacobians = []  # (s as SLSQP passed it, returned Jacobian)

    def minimize(self, *args, **kwargs):
        constraint = dict(kwargs["constraints"][0])
        self.boundary, self.jac = constraint["fun"], constraint.pop("jac")
        if not self.drop_jac:
            def recorded(s):
                jacobian = self.jac(s)
                self.jacobians.append((np.array(s), jacobian))
                return jacobian
            constraint["jac"] = recorded
        kwargs["constraints"] = [constraint]
        return optimize.minimize(*args, **kwargs)


def _scipy_jacobian(boundary, s):
    """SLSQP's own constraint Jacobian at ``s``."""
    lb, ub = np.full(s.size, -BETA_MAX), np.full(s.size, BETA_MAX)
    return approx_derivative(boundary, np.clip(s, lb, ub),
                             method="2-point", abs_step=SCIPY_SLSQP_EPS,
                             bounds=(lb, ub))


def _run_fallback(monkeypatch, evaluator, spec, d, theta, drop_jac=False):
    recorder = _RecordingOptimize(drop_jac)
    monkeypatch.setattr(worst_case, "optimize", recorder)
    dim = evaluator.template.statistical_space.dim
    g_nominal = spec.normalize(
        evaluator.performance(spec.performance, d, np.zeros(dim), theta))
    result = _slsqp_fallback(evaluator, spec, d, theta, np.zeros(dim),
                             g_nominal)
    return result, recorder


def _effort(evaluator):
    """Counters, cache contents in insertion order and template effort."""
    template = evaluator.template
    stats = [getattr(template, name)()
             for name in ("dc_effort_stats", "warm_cache_stats")
             if hasattr(template, name)]
    return (evaluator.simulation_count, evaluator.request_count,
            evaluator.cache_hits, list(evaluator._cache.items()), stats)


def _assert_same_result(a, b):
    if a is None or b is None:
        assert a is None and b is None
        return
    assert np.array_equal(a.s_wc, b.s_wc)
    assert np.array_equal(a.gradient, b.gradient)
    assert (a.spec, a.beta_wc, a.g_wc, a.g_nominal, a.on_boundary,
            a.iterations, a.method) == \
        (b.spec, b.beta_wc, b.g_wc, b.g_nominal, b.on_boundary,
         b.iterations, b.method)


def _linear_case():
    t = LinearTemplate(offset=5.0, cs=np.array([3.0, 4.0]), bound=0.0)
    return Evaluator(t), t.specs[0], D, THETA


def _folded_cascode_case():
    from repro.circuits import FoldedCascodeOpamp
    from repro.spec.operating import spec_key
    t = FoldedCascodeOpamp()
    spec = next(s for s in t.specs if spec_key(s) == "ft>=")
    return Evaluator(t), spec, t.initial_design(), FC_THETA


class TestSlsqpFallback:
    """The fallback's explicit constraint Jacobian is scipy's default
    one, evaluated as one batch."""

    def test_jacobian_is_scipys_on_a_converging_case(self, monkeypatch):
        evaluator, spec, d, theta = _linear_case()
        result, recorder = _run_fallback(monkeypatch, evaluator, spec, d,
                                         theta)
        assert result is not None and result.method == "slsqp"
        assert result.beta_wc == pytest.approx(6.0 / 5.0, rel=1e-6)
        assert recorder.jacobians
        for s, jacobian in recorder.jacobians:
            assert np.array_equal(
                jacobian, _scipy_jacobian(recorder.boundary, s))

    def test_jacobian_is_scipys_at_the_iteration_limit(self, monkeypatch,
                                                       caplog):
        evaluator, spec, d, theta = _folded_cascode_case()
        with caplog.at_level(logging.DEBUG, logger="repro.core.worst_case"):
            result, recorder = _run_fallback(monkeypatch, evaluator, spec,
                                             d, theta)
        assert result is None
        assert len(recorder.jacobians) == 26
        for s, jacobian in recorder.jacobians:
            assert np.array_equal(
                jacobian, _scipy_jacobian(recorder.boundary, s))
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "repro.core.worst_case"]
        assert len(messages) == 2
        assert messages[0].startswith("SLSQP fallback for ft>= at theta=")
        assert "'temp': 125.0" in messages[0]
        # The path SLSQP takes, and so nfev, depends on the BLAS build
        # and thread count; the iteration limit does not.
        ended = re.fullmatch(
            r"SLSQP fallback for ft>= ended: Iteration limit reached "
            r"\(nit=25, nfev=\d+, njev=26, (\d+) simulations\); no point",
            messages[1])
        assert ended, messages[1]
        # every simulation but the nominal one ran inside the fallback
        assert int(ended.group(1)) == evaluator.simulation_count - 1

    def test_converged_run_logs_a_point(self, monkeypatch, caplog):
        evaluator, spec, d, theta = _linear_case()
        with caplog.at_level(logging.DEBUG, logger="repro.core.worst_case"):
            _run_fallback(monkeypatch, evaluator, spec, d, theta)
        assert caplog.records[-1].getMessage().endswith("; returned a point")

    @pytest.mark.parametrize("case", [_linear_case, _folded_cascode_case],
                             ids=["linear", "folded-cascode"])
    def test_same_search_as_scipys_default_jacobian(self, monkeypatch,
                                                    case):
        runs = []
        for drop_jac in (False, True):
            evaluator, spec, d, theta = case()
            result, _ = _run_fallback(monkeypatch, evaluator, spec, d,
                                      theta, drop_jac=drop_jac)
            runs.append((result, _effort(evaluator)))
        (explicit, explicit_effort), (default, default_effort) = runs
        _assert_same_result(explicit, default)
        assert explicit_effort == default_effort

    def test_non_replicable_stack_takes_the_scalar_loop(self, monkeypatch):
        batched = []
        real = executor.batched_columns

        def spy(*args, **kwargs):
            columns = real(*args, **kwargs)
            batched.append(columns is not None)
            return columns

        monkeypatch.setattr(executor, "batched_columns", spy)
        evaluator, spec, d, theta = _linear_case()
        plain, _ = _run_fallback(monkeypatch, evaluator, spec, d, theta)
        assert batched and all(batched)
        del batched[:]
        wrapped = FaultInjectingEvaluator(_linear_case()[0])
        assert unwrap_pool_stack(wrapped) is None
        looped, _ = _run_fallback(monkeypatch, wrapped, spec, d, theta)
        assert batched and not any(batched)
        _assert_same_result(plain, looped)

    def test_box_edge_steps_backward_as_scipy_does(self, monkeypatch):
        evaluator, spec, d, theta = _linear_case()
        _, recorder = _run_fallback(monkeypatch, evaluator, spec, d, theta)
        probes = []
        real = worst_case.evaluate_probes

        def spy(evaluator, points, pool=None):
            probes.extend(s for _, s, _ in points)
            return real(evaluator, points, pool)

        monkeypatch.setattr(worst_case, "evaluate_probes", spy)
        s = np.array([BETA_MAX - SCIPY_SLSQP_EPS / 2, -BETA_MAX])
        jacobian = recorder.jac(s)
        assert probes[0][0] == s[0] - SCIPY_SLSQP_EPS  # backward
        assert probes[1][1] == s[1] + SCIPY_SLSQP_EPS  # forward
        assert np.array_equal(jacobian,
                              _scipy_jacobian(recorder.boundary, s))


# -- Eq. 8 optimality at the returned points ----------------------------------
#: Largest angle between ``s_wc`` and the descent direction of the
#: margin, ``-sign(beta_wc) * gradient``.  The closed-form step puts the
#: iterate on that line, so only rounding separates them (about 2e-6
#: degrees at the initial designs of the four circuits).
ANGLE_BOUND_DEG = 1e-3


def _assert_eq8_conditions(name):
    from repro.circuits import CIRCUITS
    from repro.spec.operating import find_worst_case_operating_points
    template = CIRCUITS[name]()
    evaluator = Evaluator(template)
    d = template.initial_design()
    s0 = template.statistical_space.nominal()
    theta_wc = find_worst_case_operating_points(
        lambda theta: evaluator.evaluate(d, s0, theta), template.specs,
        template.operating_range)
    found = find_all_worst_case_points(evaluator, d, theta_wc)
    on_boundary = {key: r for key, r in found.items() if r.on_boundary}
    assert on_boundary
    for key, r in on_boundary.items():
        g_bound = r.spec.normalized_bound
        assert abs(r.g_wc - g_bound) <= \
            _boundary_tolerance(g_bound, r.g_nominal), key
        direction = -math.copysign(1.0, r.beta_wc) * r.gradient
        cosine = float(r.s_wc @ direction) / (
            np.linalg.norm(r.s_wc) * np.linalg.norm(direction))
        angle = math.degrees(math.acos(min(1.0, cosine)))
        assert angle <= ANGLE_BOUND_DEG, (key, angle)


@pytest.mark.parametrize("name", ["folded-cascode", "miller", "ota"])
def test_eq8_conditions_at_returned_points(name):
    """Every on-boundary worst-case point satisfies Eq. 8: it lies on the
    spec boundary within the search's tolerance, and it is a stationary
    point of ``s^T s`` there (``s_wc`` parallel to the gradient)."""
    _assert_eq8_conditions(name)


@pytest.mark.slow
def test_eq8_conditions_at_returned_points_array():
    _assert_eq8_conditions("two-stage-array")
