"""Tests for the repro.yieldsim estimation subsystem: estimator agreement
on analytic (linear) templates, importance-sampling diagnostics, Sobol
draws, and interval behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from helpers import LinearTemplate
from repro.core import find_all_worst_case_points
from repro.errors import ReproError
from repro.evaluation import Evaluator
from repro.statistics import SampleSet, wilson_interval
from repro.yieldsim import (ESTIMATORS, ExecutionConfig, MeanShiftIS,
                            OperationalMC, SobolQMC, YieldResult,
                            make_estimator, shifts_from_worst_case)

THETA = {"f>=": {"temp": 27.0}}
D = {"d0": 1.0, "d1": 0.0}


def linear_setup(offset=0.0):
    """LinearTemplate: f = offset + d0 + s . (1, 0.5), spec f >= 0, so the
    true yield at D is Phi((offset + 1) / sqrt(1.25))."""
    template = LinearTemplate(offset=offset)
    return template, Evaluator(template)


def true_yield(offset):
    return norm.cdf((offset + 1.0) / np.sqrt(1.25))


class TestSampleSetFixes:
    def test_init_does_not_freeze_callers_array(self):
        arr = np.zeros((3, 2))
        SampleSet(arr)
        arr[0, 0] = 1.0  # raised ValueError before the copy fix
        assert arr[0, 0] == 1.0

    def test_draw_sobol_shape_and_determinism(self):
        a = SampleSet.draw_sobol(64, 5, seed=3)
        b = SampleSet.draw_sobol(64, 5, seed=3)
        c = SampleSet.draw_sobol(64, 5, seed=4)
        assert a.matrix.shape == (64, 5)
        assert np.array_equal(a.matrix, b.matrix)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_draw_sobol_non_power_of_two(self):
        s = SampleSet.draw_sobol(100, 3, seed=1)
        assert s.n == 100 and s.dim == 3

    def test_draw_sobol_is_standard_normal(self):
        s = SampleSet.draw_sobol(4096, 2, seed=9)
        assert np.all(np.isfinite(s.matrix))
        assert np.mean(s.matrix) == pytest.approx(0.0, abs=0.05)
        assert np.std(s.matrix) == pytest.approx(1.0, abs=0.05)

    def test_draw_sobol_rejects_bad_shape(self):
        with pytest.raises(ReproError):
            SampleSet.draw_sobol(0, 2)


class TestWilsonInterval:
    def test_contains_proportion(self):
        low, high = wilson_interval(80, 100)
        assert low < 0.8 < high

    def test_nonzero_width_at_the_edges(self):
        low, high = wilson_interval(0, 300)
        assert low == 0.0 and 0.005 < high < 0.03
        low, high = wilson_interval(300, 300)
        assert high == 1.0 and 0.97 < low < 0.995

    def test_rejects_bad_inputs(self):
        with pytest.raises(ReproError):
            wilson_interval(1, 0)
        with pytest.raises(ReproError):
            wilson_interval(5, 4)
        with pytest.raises(ReproError):
            wilson_interval(0, -1)

    def test_zero_samples_is_total_ignorance(self):
        # n = 0 carries no information: the interval is the whole unit
        # range, not a ZeroDivisionError.
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestOperationalMC:
    def test_result_record(self):
        template, ev = linear_setup()
        r = OperationalMC().estimate(ev, D, THETA, n_samples=200, seed=1)
        assert isinstance(r, YieldResult)
        assert r.ci_low <= r.estimate <= r.ci_high
        assert r.ess == 200
        assert r.report.n_samples == 200
        assert r.report.theta_groups == 1
        assert r.report.backend == "serial"
        assert "simulate" in r.report.phase_seconds
        assert r.standard_error > 0

    def test_json_round_trip(self):
        import json
        template, ev = linear_setup()
        r = OperationalMC().estimate(ev, D, THETA, n_samples=50, seed=1)
        data = json.loads(r.to_json())
        assert data["estimator"] == "mc"
        assert data["report"]["n_samples"] == 50


class TestMeanShiftIS:
    def test_shift_extraction(self):
        template, ev = linear_setup()
        wc = find_all_worst_case_points(ev, D, THETA, seed=2)
        shifts = shifts_from_worst_case(wc)
        # Worst-case point of f >= 0 at margin 1: s_wc = -(1, .5)/1.25.
        assert len(shifts) == 1
        assert np.linalg.norm(shifts[0]) == pytest.approx(
            1.0 / np.sqrt(1.25), rel=1e-2)

    def test_requires_a_component(self):
        template, ev = linear_setup()
        with pytest.raises(ReproError):
            MeanShiftIS(include_origin=False).estimate(
                ev, D, THETA, n_samples=10, seed=1)

    def test_origin_only_reduces_to_plain_mc(self):
        """With no shifts the mixture is the nominal density, all weights
        are 1, and the estimate equals the sample mean."""
        template, ev = linear_setup()
        r = MeanShiftIS().estimate(ev, D, THETA, n_samples=400, seed=5)
        assert r.ess == pytest.approx(400.0)
        assert r.estimate == pytest.approx(true_yield(0.0), abs=0.06)

    def test_ess_reported_below_n_with_shifts(self):
        template, ev = linear_setup()
        wc = find_all_worst_case_points(ev, D, THETA, seed=2)
        r = MeanShiftIS().estimate(ev, D, THETA, n_samples=400, seed=5,
                                   worst_case=wc)
        assert 10.0 < r.ess < 400.0

    def test_low_yield_regime_beats_mc_interval(self):
        """At ~Phi(-3) = 0.13 % yield a 300-sample MC usually sees zero
        passes; mean-shift IS resolves the estimate with a tighter CI."""
        template, ev = linear_setup(offset=-1.0 - 3.0 * np.sqrt(1.25))
        wc = find_all_worst_case_points(ev, D, THETA, seed=2)
        mc = OperationalMC().estimate(ev, D, THETA, n_samples=300, seed=7)
        is_ = MeanShiftIS().estimate(ev, D, THETA, n_samples=300, seed=7,
                                     worst_case=wc)
        truth = norm.cdf(-3.0)
        assert is_.ci_width < mc.ci_width
        assert is_.ci_low <= truth <= is_.ci_high
        assert is_.estimate == pytest.approx(truth, rel=0.75)

    def test_all_pass_snaps_to_one_with_honest_interval(self):
        """When every weighted sample passes, the self-normalized sum
        carries float residue (0.999...97); the estimate must snap to
        exactly 1.0 and the rule-of-three fallback must still fire
        instead of reporting a ~zero-width interval."""
        template, ev = linear_setup(offset=8.0)
        r = MeanShiftIS(shifts=[np.array([0.5, 0.5])]).estimate(
            ev, D, THETA, n_samples=200, seed=3)
        assert r.estimate == 1.0
        assert r.ci_high == 1.0
        assert r.ci_low == pytest.approx(1.0 - 3.0 / r.ess)

    def test_explicit_shifts_accepted(self):
        template, ev = linear_setup()
        r = MeanShiftIS(shifts=[np.array([-0.9, -0.45])]).estimate(
            ev, D, THETA, n_samples=400, seed=3)
        assert r.estimate == pytest.approx(true_yield(0.0), abs=0.08)

    def test_shift_dimension_checked(self):
        template, ev = linear_setup()
        with pytest.raises(ReproError):
            MeanShiftIS(shifts=[np.zeros(5)]).estimate(
                ev, D, THETA, n_samples=10, seed=1)


class TestSobolQMC:
    def test_agrees_with_truth(self):
        template, ev = linear_setup()
        r = SobolQMC().estimate(ev, D, THETA, n_samples=512, seed=2)
        assert r.estimate == pytest.approx(true_yield(0.0), abs=0.03)

    def test_unscrambled_supported(self):
        template, ev = linear_setup()
        r = SobolQMC(scramble=False).estimate(ev, D, THETA, n_samples=256,
                                              seed=2)
        assert 0.0 < r.estimate < 1.0


class TestEstimatorAgreement:
    """Satellite: seeded property test that MeanShiftIS and SobolQMC
    converge to the OperationalMC estimate on linear(ized) models."""

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(offset=st.floats(min_value=-1.5, max_value=1.5),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_estimators_agree_on_linear_models(self, offset, seed):
        template, ev = linear_setup(offset=offset)
        wc = find_all_worst_case_points(ev, D, THETA, seed=1)
        truth = true_yield(offset)
        n = 1024
        mc = OperationalMC().estimate(ev, D, THETA, n_samples=n, seed=seed)
        qmc = SobolQMC().estimate(ev, D, THETA, n_samples=n, seed=seed)
        is_ = MeanShiftIS().estimate(ev, D, THETA, n_samples=n, seed=seed,
                                     worst_case=wc)
        for r in (mc, qmc, is_):
            assert r.estimate == pytest.approx(truth, abs=0.06)
        assert qmc.estimate == pytest.approx(mc.estimate, abs=0.08)
        assert is_.estimate == pytest.approx(mc.estimate, abs=0.08)

    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_parallel_results_bit_identical_to_serial(self, name):
        template, ev = linear_setup()
        wc = find_all_worst_case_points(ev, D, THETA, seed=1)
        serial = make_estimator(name).estimate(
            ev, D, THETA, n_samples=96, seed=6, worst_case=wc)
        parallel = make_estimator(name, jobs=2, chunk_size=17).estimate(
            ev, D, THETA, n_samples=96, seed=6, worst_case=wc)
        assert parallel.estimate == serial.estimate
        assert parallel.bad_fraction == serial.bad_fraction
        assert parallel.performance_mean == serial.performance_mean
        assert parallel.report.backend == "process-pool"


class TestFactory:
    def test_registry(self):
        assert set(ESTIMATORS) == {"mc", "is", "qmc"}

    def test_unknown_name_rejected(self):
        with pytest.raises(ReproError):
            make_estimator("bogus")

    def test_execution_config_forwarded(self):
        est = make_estimator("mc", jobs=3, chunk_size=10, timeout_s=5.0)
        assert est.execution == ExecutionConfig(jobs=3, chunk_size=10,
                                                timeout_s=5.0)


class TestOptimizerIntegration:
    def test_verifier_instance_is_used(self):
        from repro.core import OptimizerConfig, YieldOptimizer
        template = LinearTemplate()
        config = OptimizerConfig(max_iterations=1, n_samples_linear=300,
                                 n_samples_verify=60, seed=4)
        result = YieldOptimizer(template, config,
                                verifier=MeanShiftIS()).run()
        assert isinstance(result.final.mc, YieldResult)
        assert result.final.mc.estimator == "is"
        # IS received the iteration's worst-case points: with a reachable
        # boundary the proposal has >= 2 components, so ESS < N.
        assert result.final.mc.ess < 60.0

    def test_default_verifier_matches_legacy_numbers(self):
        """The refactor must not change optimizer results: the default
        OperationalMC verifier draws the same seeded samples as the old
        inline Monte-Carlo."""
        from repro.core import OptimizerConfig, YieldOptimizer
        template = LinearTemplate()
        config = OptimizerConfig(max_iterations=2, n_samples_linear=400,
                                 n_samples_verify=80, seed=12,
                                 trust_radius=0.0)
        a = YieldOptimizer(LinearTemplate(), config).run()
        b = YieldOptimizer(LinearTemplate(), config,
                           verifier=OperationalMC()).run()
        assert a.final.yield_mc == b.final.yield_mc
        assert a.d_final == b.d_final

    def test_cache_accounting_on_result(self):
        from repro.core import OptimizerConfig, YieldOptimizer
        template = LinearTemplate()
        config = OptimizerConfig(max_iterations=1, n_samples_linear=200,
                                 n_samples_verify=30, seed=2)
        result = YieldOptimizer(template, config).run()
        assert result.total_requests >= result.total_simulations
        assert result.total_cache_hits == \
            result.total_requests - result.total_simulations


class TestZeroSampleEstimates:
    """A zero-sample request (an empty explicit sample set, or a sharded
    run whose neighbor shards took every sample) must return the honest
    "no information" result instead of crashing in mean()/max() on empty
    arrays."""

    def test_operational_mc_empty_sample_set(self):
        _, ev = linear_setup()
        empty = SampleSet(np.zeros((0, 2)))
        r = OperationalMC().estimate(ev, D, THETA, samples=empty, seed=1)
        assert r.n_samples == 0
        assert r.estimate == 0.0
        assert (r.ci_low, r.ci_high) == (0.0, 1.0)
        assert all(v == 0.0 for v in r.bad_fraction.values())

    def test_mean_shift_is_zero_samples(self):
        _, ev = linear_setup()
        r = MeanShiftIS().estimate(ev, D, THETA, n_samples=0, seed=1)
        assert r.n_samples == 0
        assert r.estimate == 0.0
        assert (r.ci_low, r.ci_high) == (0.0, 1.0)
        assert r.ess == 0.0

    def test_zero_sample_stats_merge_as_identity(self):
        # The n = 0 sufficient statistics must act as the pooling
        # identity so an empty shard never corrupts a merged estimate.
        _, ev = linear_setup()
        from repro.yieldsim import merge_stats
        full = MeanShiftIS().estimate(ev, D, THETA, n_samples=200, seed=5)
        empty = MeanShiftIS().estimate(ev, D, THETA, n_samples=0, seed=1)
        merged = merge_stats([full.stats, empty.stats])
        assert merged.to_dict() == full.stats.to_dict()
