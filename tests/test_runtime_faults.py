"""Fault-injection tests for the :mod:`repro.runtime` layer.

Covers the fault policy (classification, retry-with-jitter), the
fault-tolerant evaluator facade (lenient/strict modes, counters), the
deterministic fault injector, run budgets, checkpoint round-trips and
resume determinism, and the optimizer's behaviour under injected faults
(recovery, count-as-fail accounting, abort with partial trace).
"""

import copy
import json
import os

import numpy as np
import pytest

from helpers import LinearTemplate, QuadraticTemplate
from repro.core.optimizer import OptimizerConfig, YieldOptimizer
from repro.core.feasible_point import find_feasible_point
from repro.errors import (ConvergenceError, ExtractionError,
                          FeasibilityError, NetlistError, ReproError,
                          SingularMatrixError)
from repro.evaluation import Evaluator
from repro.reporting.tables import optimization_trace_table
from repro.runtime import (CheckpointError, FaultAction,
                           FaultInjectingEvaluator, FaultPolicy,
                           FaultTolerantEvaluator, RetryConfig, RunBudget,
                           STOP_ABORTED_PREFIX, STOP_CONVERGED,
                           STOP_DEADLINE, STOP_MAX_ITERATIONS,
                           STOP_SIM_BUDGET, load_checkpoint, point_digest,
                           save_checkpoint)
from repro.yieldsim import OperationalMC

D = {"d0": 1.0, "d1": 0.0}
THETA = {"temp": 27.0}
S0 = np.zeros(2)


def quick_config(**overrides):
    defaults = dict(max_iterations=3, n_samples_linear=500,
                    n_samples_verify=100, seed=7)
    defaults.update(overrides)
    return OptimizerConfig(**defaults)


class PoisonedTemplate(LinearTemplate):
    """Raises ``error`` whenever the statistical point equals ``poison``
    exactly — a jittered retry lands epsilon away and succeeds."""

    def __init__(self, poison, error=ConvergenceError, **kwargs):
        super().__init__(**kwargs)
        self.poison = np.asarray(poison, dtype=float)
        self.error = error

    def evaluate(self, d, s_hat, theta):
        if np.array_equal(np.asarray(s_hat, dtype=float), self.poison):
            raise self.error("poisoned statistical point")
        return super().evaluate(d, s_hat, theta)


class AlwaysFailingTemplate(LinearTemplate):
    def __init__(self, error=ConvergenceError, **kwargs):
        super().__init__(**kwargs)
        self.error = error

    def evaluate(self, d, s_hat, theta):
        raise self.error("permanent failure")


# -- policy -------------------------------------------------------------------
class TestRetryConfig:
    def test_validation(self):
        with pytest.raises(ReproError):
            RetryConfig(attempts=-1)
        with pytest.raises(ReproError):
            RetryConfig(jitter=-1e-9)
        with pytest.raises(ReproError):
            RetryConfig(backoff=0.5)

    def test_magnitude_backoff(self):
        retry = RetryConfig(attempts=3, jitter=1e-6, backoff=8.0)
        assert retry.magnitude(0) == pytest.approx(1e-6)
        assert retry.magnitude(1) == pytest.approx(8e-6)
        assert retry.magnitude(2) == pytest.approx(64e-6)


class TestFaultPolicy:
    def test_default_classification(self):
        policy = FaultPolicy()
        assert policy.classify(ConvergenceError("x")) is FaultAction.RETRY
        assert policy.classify(SingularMatrixError("x")) is \
            FaultAction.RETRY
        assert policy.classify(ExtractionError("x")) is \
            FaultAction.COUNT_AS_FAIL
        assert policy.classify(NetlistError("x")) is FaultAction.ABORT
        # Other ReproErrors and foreign exceptions abort.
        assert policy.classify(FeasibilityError("x")) is FaultAction.ABORT
        assert policy.classify(RuntimeError("x")) is FaultAction.ABORT

    def test_overrides_extend_defaults(self):
        policy = FaultPolicy(
            actions={ConvergenceError: FaultAction.COUNT_AS_FAIL})
        assert policy.classify(ConvergenceError("x")) is \
            FaultAction.COUNT_AS_FAIL
        # Sibling subclass keeps the AnalysisError default.
        assert policy.classify(SingularMatrixError("x")) is \
            FaultAction.RETRY

    def test_jitter_deterministic_in_point(self):
        policy = FaultPolicy()
        a = policy.jittered(D, S0, THETA, attempt=0)
        b = policy.jittered(D, S0, THETA, attempt=0)
        assert np.array_equal(a, b)
        # Different attempts jitter differently (and further).
        c = policy.jittered(D, S0, THETA, attempt=1)
        assert not np.array_equal(a, c)
        assert np.linalg.norm(c - S0) > np.linalg.norm(a - S0)

    def test_jitter_never_compounds(self):
        # Attempt k perturbs the *original* point, bounded by magnitude.
        policy = FaultPolicy(retry=RetryConfig(attempts=3, jitter=1e-6))
        for attempt in range(3):
            moved = policy.jittered(D, S0, THETA, attempt)
            assert np.linalg.norm(moved - S0) < \
                10 * policy.retry.magnitude(attempt)

    def test_describe_names_actions(self):
        table = FaultPolicy().describe()
        assert table["AnalysisError"] == "retry"
        assert table["NetlistError"] == "abort"


class TestPointDigest:
    def test_stable_and_sensitive(self):
        base = point_digest(D, S0, THETA)
        assert point_digest(D, S0, THETA) == base
        assert point_digest(D, S0 + 1e-12, THETA) != base
        assert point_digest({**D, "d0": 2.0}, S0, THETA) != base
        assert point_digest(D, S0, {"temp": 28.0}) != base
        assert point_digest(D, S0, THETA, salt=1) != base


# -- fault-tolerant evaluator -------------------------------------------------
class TestFaultTolerantEvaluator:
    def test_retry_recovers_and_counts(self):
        template = PoisonedTemplate(poison=S0)
        guarded = FaultTolerantEvaluator(Evaluator(template))
        values = guarded.evaluate(D, S0, THETA)
        assert np.isfinite(values["f"])
        assert guarded.retried_evaluations == 1
        assert guarded.recovered_evaluations == 1
        assert guarded.failed_evaluations == 0

    def test_exhausted_retries_raise_in_strict_mode(self):
        guarded = FaultTolerantEvaluator(
            Evaluator(AlwaysFailingTemplate()),
            FaultPolicy(retry=RetryConfig(attempts=2)))
        with pytest.raises(ConvergenceError):
            guarded.evaluate(D, S0, THETA)
        assert guarded.retried_evaluations == 2
        assert guarded.failed_evaluations == 1
        assert guarded.recovered_evaluations == 0

    def test_exhausted_retries_are_nan_in_lenient_mode(self):
        guarded = FaultTolerantEvaluator(
            Evaluator(AlwaysFailingTemplate()),
            FaultPolicy(retry=RetryConfig(attempts=1)))
        with guarded.lenient():
            values = guarded.evaluate(D, S0, THETA)
        assert set(values) == {"f"}
        assert np.isnan(values["f"])
        assert guarded.failed_evaluations == 1
        # The mode is restored on context exit.
        with pytest.raises(ConvergenceError):
            guarded.evaluate(D, S0, THETA)

    def test_count_as_fail_skips_retries(self):
        guarded = FaultTolerantEvaluator(
            Evaluator(AlwaysFailingTemplate(error=ExtractionError)))
        with guarded.lenient():
            values = guarded.evaluate(D, S0, THETA)
        assert np.isnan(values["f"])
        assert guarded.retried_evaluations == 0

    def test_abort_errors_propagate_even_in_lenient_mode(self):
        guarded = FaultTolerantEvaluator(
            Evaluator(AlwaysFailingTemplate(error=NetlistError)))
        with guarded.lenient():
            with pytest.raises(NetlistError):
                guarded.evaluate(D, S0, THETA)
        assert guarded.failed_evaluations == 0

    def test_delegates_to_inner_evaluator(self):
        evaluator = Evaluator(LinearTemplate())
        guarded = FaultTolerantEvaluator(evaluator)
        guarded.evaluate(D, S0, THETA)
        assert guarded.simulation_count == evaluator.simulation_count == 1
        assert guarded.template is evaluator.template
        assert guarded.inner is evaluator


# -- fault injection ----------------------------------------------------------
class TestFaultInjection:
    def test_rate_validation(self):
        with pytest.raises(ReproError):
            FaultInjectingEvaluator(Evaluator(LinearTemplate()), rate=1.5)

    def test_scheduled_faults_hit_exact_requests(self):
        injector = FaultInjectingEvaluator(Evaluator(LinearTemplate()),
                                           schedule=[2])
        injector.evaluate(D, S0, THETA)
        with pytest.raises(ConvergenceError):
            injector.evaluate(D, S0, THETA)
        injector.evaluate(D, S0, THETA)
        assert injector.injected_count == 1
        assert injector.request_index == 3

    def test_probabilistic_faults_are_call_order_independent(self):
        rng = np.random.default_rng(0)
        points = [rng.standard_normal(2) for _ in range(40)]

        def failing_points(order):
            injector = FaultInjectingEvaluator(
                Evaluator(LinearTemplate()), rate=0.2, seed=11)
            failed = set()
            for i in order:
                try:
                    injector.evaluate(D, points[i], THETA)
                except ConvergenceError:
                    failed.add(i)
            return failed

        forward = failing_points(range(40))
        backward = failing_points(reversed(range(40)))
        assert forward == backward
        assert 0 < len(forward) < 40

    def test_rate_extremes(self):
        calm = FaultInjectingEvaluator(Evaluator(LinearTemplate()),
                                       rate=0.0, seed=3)
        calm.evaluate(D, S0, THETA)
        assert calm.injected_count == 0
        storm = FaultInjectingEvaluator(Evaluator(LinearTemplate()),
                                        rate=1.0, seed=3)
        with pytest.raises(ConvergenceError):
            storm.evaluate(D, S0, THETA)
        assert storm.injected_count == 1

    def test_custom_error_factory(self):
        injector = FaultInjectingEvaluator(
            Evaluator(LinearTemplate()), schedule=[1],
            error=lambda: NetlistError("boom"))
        with pytest.raises(NetlistError):
            injector.evaluate(D, S0, THETA)

    def test_retry_recovers_injected_faults(self):
        # The jittered retry point hashes differently, so a RETRY policy
        # recovers a rate-injected fault.
        injector = FaultInjectingEvaluator(Evaluator(LinearTemplate()),
                                           rate=1e-3, seed=0)
        guarded = FaultTolerantEvaluator(injector)
        rng = np.random.default_rng(1)
        while injector.injected_count == 0:
            guarded.evaluate(D, rng.standard_normal(2), THETA)
        assert guarded.recovered_evaluations == injector.injected_count
        assert guarded.failed_evaluations == 0


# -- budgets ------------------------------------------------------------------
class TestRunBudget:
    def test_validation(self):
        with pytest.raises(ReproError):
            RunBudget(deadline_s=-1.0)
        with pytest.raises(ReproError):
            RunBudget(max_simulations=0)

    def test_unlimited(self):
        assert RunBudget().unlimited
        assert not RunBudget(deadline_s=1.0).unlimited

    def test_deadline_binds_before_sim_budget(self):
        budget = RunBudget(deadline_s=1.0, max_simulations=10)
        assert budget.exhausted(2.0, 100) == STOP_DEADLINE
        assert budget.exhausted(0.5, 100) == STOP_SIM_BUDGET
        assert budget.exhausted(0.5, 5) is None

    def test_optimizer_stops_on_deadline_with_partial_trace(self):
        result = YieldOptimizer(LinearTemplate(),
                                quick_config(min_improvement=-1.0),
                                budget=RunBudget(deadline_s=0.0)).run()
        # Iteration 1 always completes (the gate waits for a record),
        # then the deadline trips at the next iteration boundary.
        assert result.stop_reason == STOP_DEADLINE
        assert not result.converged
        assert len(result.records) == 2

    def test_optimizer_stops_on_sim_budget(self):
        result = YieldOptimizer(LinearTemplate(),
                                quick_config(min_improvement=-1.0),
                                budget=RunBudget(max_simulations=1)).run()
        assert result.stop_reason == STOP_SIM_BUDGET
        assert len(result.records) == 2


# -- feasibility errors -------------------------------------------------------
class TestFeasibilityDiagnostics:
    def test_feasibility_error_names_offending_constraint(self):
        # min_d0 beyond the d0 upper bound: no feasible point exists.
        template = LinearTemplate(min_d0=20.0)
        with pytest.raises(FeasibilityError) as info:
            find_feasible_point(Evaluator(template),
                                template.initial_design())
        message = str(info.value)
        assert "'c0'" in message
        assert template.name in message


# -- checkpoint / resume ------------------------------------------------------
class TestCheckpoint:
    def run_with_checkpoint(self, tmp_path, **overrides):
        path = str(tmp_path / "ck.json")
        config = quick_config(min_improvement=-1.0, **overrides)
        result = YieldOptimizer(LinearTemplate(), config,
                                checkpoint_path=path).run()
        return path, config, result

    def test_round_trip_is_bit_identical(self, tmp_path):
        path, _, result = self.run_with_checkpoint(tmp_path)
        state = load_checkpoint(path, LinearTemplate())
        assert state.iteration == len(result.records) - 1
        assert state.d_f == result.d_final
        for original, restored in zip(result.records, state.records):
            assert restored.d == original.d
            assert restored.margins == original.margins
            assert restored.bad_samples == original.bad_samples
            assert restored.yield_linear == original.yield_linear
            assert restored.yield_mc == original.yield_mc
            assert restored.gamma == original.gamma
            assert restored.failed_samples == original.failed_samples
            assert restored.simulations == original.simulations
            for key, wc in original.worst_case.items():
                other = restored.worst_case[key]
                assert np.array_equal(other.s_wc, wc.s_wc)
                assert other.beta_wc == wc.beta_wc
                assert np.array_equal(other.gradient, wc.gradient)
            if original.mc is not None:
                assert restored.mc.to_dict() == original.mc.to_dict()

    def test_rejects_wrong_template(self, tmp_path):
        path, _, _ = self.run_with_checkpoint(tmp_path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, QuadraticTemplate())

    def test_rejects_wrong_version(self, tmp_path):
        path, _, _ = self.run_with_checkpoint(tmp_path)
        with open(path) as handle:
            payload = json.load(handle)
        payload["version"] = 999
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, LinearTemplate())

    def test_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path), LinearTemplate())
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "missing.json"),
                            LinearTemplate())

    def test_resume_rejects_seed_mismatch(self, tmp_path):
        path, config, _ = self.run_with_checkpoint(tmp_path)
        other = copy.deepcopy(config)
        other.seed = config.seed + 1
        with pytest.raises(ReproError):
            YieldOptimizer(LinearTemplate(), other, checkpoint_path=path,
                           resume=True).run()

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        config = quick_config(min_improvement=-1.0)
        reference = YieldOptimizer(LinearTemplate(),
                                   copy.deepcopy(config)).run()
        assert len(reference.records) == 4

        # "Kill" the run after iteration 1, then resume to the end.
        path = str(tmp_path / "ck.json")
        partial_config = quick_config(min_improvement=-1.0,
                                      max_iterations=1)
        YieldOptimizer(LinearTemplate(), partial_config,
                       checkpoint_path=path).run()
        resumed = YieldOptimizer(LinearTemplate(), copy.deepcopy(config),
                                 checkpoint_path=path, resume=True).run()
        assert resumed.d_final == reference.d_final
        assert len(resumed.records) == len(reference.records)
        for a, b in zip(reference.records, resumed.records):
            assert a.d == b.d
            assert a.margins == b.margins
            assert a.yield_linear == b.yield_linear
            assert a.yield_mc == b.yield_mc
            assert a.gamma == b.gamma
        assert resumed.stop_reason == reference.stop_reason

    def test_resume_from_converged_checkpoint_returns_immediately(
            self, tmp_path):
        path = str(tmp_path / "ck.json")
        config = quick_config()  # default min_improvement: converges
        reference = YieldOptimizer(QuadraticTemplate(),
                                   copy.deepcopy(config),
                                   checkpoint_path=path).run()
        assert reference.stop_reason == STOP_CONVERGED
        resumed = YieldOptimizer(QuadraticTemplate(),
                                 copy.deepcopy(config),
                                 checkpoint_path=path, resume=True).run()
        assert resumed.converged
        assert resumed.stop_reason == STOP_CONVERGED
        assert len(resumed.records) == len(reference.records)
        assert resumed.d_final == reference.d_final

    def test_save_is_atomic(self, tmp_path):
        path, _, _ = self.run_with_checkpoint(tmp_path)
        # No temp-file droppings next to the checkpoint.
        leftovers = [name for name in os.listdir(tmp_path)
                     if name.endswith(".tmp")]
        assert leftovers == []


# -- optimizer under injected faults ------------------------------------------
class TestOptimizerUnderFaults:
    def test_recovers_from_transient_convergence_faults(self):
        template = LinearTemplate()
        injector = FaultInjectingEvaluator(Evaluator(template),
                                           rate=0.05, seed=13)
        result = YieldOptimizer(template,
                                quick_config(min_improvement=-1.0),
                                evaluator=injector).run()
        assert injector.injected_count > 0
        assert not result.aborted
        assert result.stop_reason == STOP_MAX_ITERATIONS
        assert len(result.records) == 4  # all iterations completed
        assert result.total_retried_evaluations >= \
            injector.injected_count

    def test_structural_fault_aborts_with_partial_trace(self):
        # Find how many evaluations one full iteration consumes, then
        # schedule a NetlistError shortly into iteration 2.
        template = LinearTemplate()
        probe = FaultInjectingEvaluator(Evaluator(template))
        YieldOptimizer(template,
                       quick_config(min_improvement=-1.0,
                                    max_iterations=1),
                       evaluator=probe).run()
        kill_at = probe.request_index + 3

        injector = FaultInjectingEvaluator(
            Evaluator(LinearTemplate()), schedule=[kill_at],
            error=lambda: NetlistError("shorted net"))
        result = YieldOptimizer(LinearTemplate(),
                                quick_config(min_improvement=-1.0),
                                evaluator=injector).run()
        assert result.aborted
        assert result.stop_reason.startswith(
            STOP_ABORTED_PREFIX + "NetlistError")
        assert len(result.records) == 2  # initial + iteration 1

    def test_counters_consistent_after_mid_verification_fault(self):
        template = LinearTemplate()
        evaluator = Evaluator(template)
        injector = FaultInjectingEvaluator(evaluator, rate=0.05, seed=13)
        YieldOptimizer(template, quick_config(min_improvement=-1.0),
                       evaluator=injector).run()
        # Every answered request is either a cache hit or a miss; the
        # injector raises *before* the inner evaluator sees the request.
        assert evaluator.request_count == \
            evaluator.cache_hits + evaluator.cache_misses
        assert evaluator.simulation_count == evaluator.cache_misses

    def test_failed_samples_surface_in_result_and_trace(self):
        # ExtractionError is count-as-fail: no retry can absorb it, so
        # lenient verification records genuine failed samples.
        template = LinearTemplate()
        injector = FaultInjectingEvaluator(
            Evaluator(template), rate=0.02, seed=29,
            error=lambda: ExtractionError("no unity-gain crossing"))
        guarded = FaultTolerantEvaluator(injector)
        with guarded.lenient():
            result = OperationalMC().estimate(guarded, D, {"f>=": THETA},
                                              n_samples=200, seed=5)
        assert result.failed_samples > 0
        assert result.failed_samples == guarded.failed_evaluations
        assert result.report.failed_samples == result.failed_samples
        # A failed sample counts as spec-violating in Eq. 6-7.
        assert result.estimate <= \
            1.0 - result.failed_samples / result.n_samples

    def test_trace_table_reports_failed_samples(self):
        template = LinearTemplate()
        result = YieldOptimizer(template, quick_config()).run()
        record = result.records[-1]
        record.failed_samples = 3
        text = optimization_trace_table(template, result)
        assert "failed samples = 3" in text
        assert "counted as spec-violating" in text
