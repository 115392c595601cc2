"""Tests for the batched parallel execution engine: chunking,
deterministic ordering, counter and telemetry parity of pooled runs with
serial ones, the timeout/retry path, serial execution of stacks the pool
cannot replicate, and degradation to serial execution when the pool dies
(wedged worker or ``BrokenProcessPool``)."""

import logging
import multiprocessing
import os
import time

import numpy as np
import pytest

from helpers import LinearTemplate
from repro.errors import ReproError
from repro.evaluation import Evaluator
from repro.runtime import FaultInjectingEvaluator, FaultTolerantEvaluator
from repro.yieldsim import BatchExecutor, ExecutionConfig, make_estimator

THETAS = [{"temp": 27.0}]
D = {"d0": 1.0, "d1": 0.0}


class SlowTemplate(LinearTemplate):
    """Sleeps on every evaluation — drives the per-chunk timeout path."""

    def __init__(self, delay=0.2):
        super().__init__()
        self.delay = delay

    def evaluate(self, d, s_hat, theta, performances=None):
        time.sleep(self.delay)
        return super().evaluate(d, s_hat, theta, performances)


class FailInWorkerTemplate(LinearTemplate):
    """Raises in any process other than the one that built it — drives
    the pool-failure/in-parent-retry path deterministically."""

    def __init__(self):
        super().__init__()
        self.home_pid = os.getpid()

    def evaluate(self, d, s_hat, theta, performances=None):
        if os.getpid() != self.home_pid:
            raise RuntimeError("worker-side failure")
        return super().evaluate(d, s_hat, theta, performances)


class WedgeInWorkerTemplate(LinearTemplate):
    """Sleeps (near-)forever in worker processes, evaluates instantly in
    the parent — a wedged worker that ``Future.cancel`` cannot stop."""

    def __init__(self, delay=60.0):
        super().__init__()
        self.home_pid = os.getpid()
        self.delay = delay

    def evaluate(self, d, s_hat, theta, performances=None):
        if os.getpid() != self.home_pid:
            time.sleep(self.delay)
        return super().evaluate(d, s_hat, theta, performances)


class DieInWorkerTemplate(LinearTemplate):
    """Kills its worker process outright — drives ``BrokenProcessPool``."""

    def __init__(self):
        super().__init__()
        self.home_pid = os.getpid()

    def evaluate(self, d, s_hat, theta, performances=None):
        if os.getpid() != self.home_pid:
            os._exit(17)
        return super().evaluate(d, s_hat, theta, performances)


def run(template, config, n=12):
    evaluator = Evaluator(template)
    matrix = np.random.default_rng(3).standard_normal((n, 2))
    outcome = BatchExecutor(config).run(evaluator, D, THETAS, matrix)
    return evaluator, matrix, outcome


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ReproError):
            ExecutionConfig(jobs=0)
        with pytest.raises(ReproError):
            ExecutionConfig(chunk_size=0)

    def test_rejects_bad_matrix(self):
        evaluator = Evaluator(LinearTemplate())
        with pytest.raises(ReproError):
            BatchExecutor().run(evaluator, D, THETAS, np.zeros(3))
        with pytest.raises(ReproError):
            BatchExecutor().run(evaluator, D, [], np.zeros((3, 2)))


class TestSerialBackend:
    def test_values_ordered_and_counted(self):
        evaluator, matrix, outcome = run(LinearTemplate(),
                                         ExecutionConfig())
        assert outcome.backend == "serial"
        assert len(outcome.values) == 12
        t = LinearTemplate()
        for row, per_theta in zip(matrix, outcome.values):
            assert per_theta[0]["f"] == pytest.approx(
                t.value(D, row, THETAS[0]))
        assert outcome.simulations == 12
        assert evaluator.simulation_count == 12

    @pytest.mark.parametrize("config", [
        ExecutionConfig(), ExecutionConfig(jobs=2, chunk_size=2)],
        ids=["serial", "pooled"])
    def test_cache_hits_reported(self, config):
        # Pooled must count like serial: worker cache entries fold into
        # the parent cache, so a row another chunk already simulated is
        # a hit, not a second simulation.
        template = LinearTemplate()
        evaluator = Evaluator(template)
        matrix = np.zeros((5, 2))  # identical rows -> 1 miss + 4 hits
        outcome = BatchExecutor(config).run(evaluator, D, THETAS, matrix)
        assert outcome.simulations == 1
        assert outcome.cache_hits == 4
        assert evaluator.cache_hits == 4
        assert evaluator.cache_misses == 1
        assert evaluator.cache_size == 1


class TestProcessPoolBackend:
    def test_matches_serial_bitwise(self):
        _, _, serial = run(LinearTemplate(), ExecutionConfig(), n=23)
        _, _, parallel = run(LinearTemplate(),
                             ExecutionConfig(jobs=2, chunk_size=5), n=23)
        assert parallel.backend == "process-pool"
        assert parallel.chunks == 5
        assert parallel.values == serial.values

    def test_chunk_size_invariance(self):
        outcomes = [run(LinearTemplate(),
                        ExecutionConfig(jobs=2, chunk_size=size), n=17)[2]
                    for size in (1, 4, 17)]
        assert outcomes[0].values == outcomes[1].values == \
            outcomes[2].values

    def test_parent_counters_absorb_worker_effort(self):
        evaluator, _, outcome = run(LinearTemplate(),
                                    ExecutionConfig(jobs=2, chunk_size=4),
                                    n=12)
        assert outcome.simulations == 12
        assert evaluator.simulation_count == 12
        assert evaluator.request_count == 12

    def test_timeout_retries_in_parent(self):
        template = SlowTemplate(delay=0.2)
        evaluator = Evaluator(template)
        matrix = np.random.default_rng(1).standard_normal((2, 2))
        config = ExecutionConfig(jobs=2, chunk_size=1, timeout_s=0.02)
        outcome = BatchExecutor(config).run(evaluator, D, THETAS, matrix)
        assert outcome.timed_out_chunks >= 1
        assert outcome.retried_chunks >= 1
        reference = BatchExecutor().run(Evaluator(SlowTemplate(0.0)), D,
                                        THETAS, matrix)
        assert outcome.values == reference.values

    def test_worker_failure_retries_in_parent(self):
        template = FailInWorkerTemplate()
        evaluator = Evaluator(template)
        matrix = np.random.default_rng(2).standard_normal((6, 2))
        config = ExecutionConfig(jobs=2, chunk_size=3)
        outcome = BatchExecutor(config).run(evaluator, D, THETAS, matrix)
        assert outcome.retried_chunks == 2
        assert outcome.timed_out_chunks == 0
        reference = BatchExecutor().run(Evaluator(LinearTemplate()), D,
                                        THETAS, matrix)
        assert outcome.values == reference.values
        # Retried effort landed on the parent evaluator.
        assert evaluator.simulation_count == 6

    def test_exhausted_retries_raise(self):
        template = FailInWorkerTemplate()
        template.home_pid = -1  # fails in the parent too
        evaluator = Evaluator(template)
        matrix = np.zeros((4, 2))
        config = ExecutionConfig(jobs=2, chunk_size=2)
        with pytest.raises(ReproError):
            BatchExecutor(config).run(evaluator, D, THETAS, matrix)

    def test_single_sample_stays_serial(self):
        _, _, outcome = run(LinearTemplate(), ExecutionConfig(jobs=4), n=1)
        assert outcome.backend == "serial"

    def test_fault_injecting_stack_runs_serially(self):
        # The injector's call-order state lives in the parent, so the
        # pool cannot replicate the stack: jobs=2 must run it serially,
        # injecting and handling exactly the faults jobs=1 does.
        def run_stack(jobs):
            injector = FaultInjectingEvaluator(Evaluator(LinearTemplate()),
                                               rate=0.5, seed=2)
            guarded = FaultTolerantEvaluator(injector)
            matrix = np.random.default_rng(7).standard_normal((12, 2))
            with guarded.lenient():
                outcome = BatchExecutor(ExecutionConfig(jobs=jobs)).run(
                    guarded, D, THETAS, matrix)
            values = np.array([[per_theta["f"] for per_theta in row]
                               for row in outcome.values])
            counts = (guarded.failed_evaluations,
                      guarded.retried_evaluations,
                      guarded.recovered_evaluations,
                      injector.injected_count)
            return values, counts, outcome

        serial_values, serial_counts, serial = run_stack(1)
        pooled_values, pooled_counts, pooled = run_stack(2)
        assert all(serial_counts)  # failed, retried, recovered, injected
        np.testing.assert_array_equal(pooled_values, serial_values)
        assert pooled_counts == serial_counts
        assert pooled.backend == "serial"
        assert pooled.pool_incompatible
        assert not serial.pool_incompatible

    def test_pooled_mc_reports_serial_effort_telemetry(self):
        # Workers ship their warm-start and DC-effort counter deltas
        # back, so a pooled estimate reports the serial run's telemetry.
        from repro.circuits import CIRCUITS
        from repro.spec.operating import find_worst_case_operating_points

        def estimate(jobs):
            template = CIRCUITS["ota"]()
            evaluator = Evaluator(template)
            d = template.initial_design()
            s0 = template.statistical_space.nominal()
            theta_wc = find_worst_case_operating_points(
                lambda theta: evaluator.evaluate(d, s0, theta),
                template.specs, template.operating_range)
            return make_estimator("mc", jobs=jobs).estimate(
                evaluator, d, theta_wc, n_samples=24, seed=3)

        serial, pooled = estimate(1), estimate(2)
        assert pooled.report.backend == "process-pool"
        assert serial.report.dc_effort["newton-warm"] == 72
        assert pooled.report.dc_effort == serial.report.dc_effort
        assert pooled.report.warm_cache == serial.report.warm_cache
        assert pooled.estimate == serial.estimate
        assert pooled.report.simulations == serial.report.simulations


class TestPoolDegradation:
    """When the pool dies the batch must still finish: workers are
    killed, finished chunks are harvested, and the remainder runs
    serially in the parent."""

    def test_wedged_worker_is_killed_not_awaited(self, caplog):
        # Every worker-side evaluation sleeps 60 s; the whole batch must
        # still finish far sooner than any single hung chunk, which
        # proves the pool was torn down rather than drained.
        template = WedgeInWorkerTemplate(delay=60.0)
        evaluator = Evaluator(template)
        matrix = np.random.default_rng(4).standard_normal((6, 2))
        config = ExecutionConfig(jobs=2, chunk_size=2, timeout_s=0.2)
        started = time.monotonic()
        with caplog.at_level(logging.WARNING,
                             logger="repro.yieldsim.executor"):
            outcome = BatchExecutor(config).run(evaluator, D, THETAS,
                                                matrix)
        elapsed = time.monotonic() - started
        assert elapsed < 30.0
        assert outcome.degraded_to_serial
        assert outcome.timed_out_chunks == 1
        # The remaining chunks were not waited on against the dead pool.
        assert outcome.retried_chunks >= 1
        reference = BatchExecutor().run(Evaluator(LinearTemplate()), D,
                                        THETAS, matrix)
        assert outcome.values == reference.values
        # One record names the cause and the in-parent re-run count.
        records = [r for r in caplog.records
                   if r.name == "repro.yieldsim.executor"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        assert "timeout" in records[0].getMessage()
        assert f"{outcome.retried_chunks} of 3 tasks" in \
            records[0].getMessage()

    def test_wedged_worker_leaves_no_live_children(self):
        template = WedgeInWorkerTemplate(delay=60.0)
        evaluator = Evaluator(template)
        matrix = np.random.default_rng(5).standard_normal((4, 2))
        config = ExecutionConfig(jobs=2, chunk_size=2, timeout_s=0.2)
        BatchExecutor(config).run(evaluator, D, THETAS, matrix)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and \
                any(p.is_alive() for p in multiprocessing.active_children()):
            time.sleep(0.05)
        leaked = [p for p in multiprocessing.active_children()
                  if p.is_alive()]
        assert not leaked, f"wedged workers outlived the run: {leaked}"

    def test_broken_pool_degrades_to_serial(self, caplog):
        template = DieInWorkerTemplate()
        evaluator = Evaluator(template)
        matrix = np.random.default_rng(6).standard_normal((6, 2))
        config = ExecutionConfig(jobs=2, chunk_size=2)
        with caplog.at_level(logging.WARNING,
                             logger="repro.yieldsim.executor"):
            outcome = BatchExecutor(config).run(evaluator, D, THETAS,
                                                matrix)
        assert outcome.degraded_to_serial
        assert outcome.timed_out_chunks == 0
        assert outcome.retried_chunks >= 1
        reference = BatchExecutor().run(Evaluator(LinearTemplate()), D,
                                        THETAS, matrix)
        assert outcome.values == reference.values
        # Serial re-runs counted on the parent evaluator; every sample
        # is accounted for exactly once overall.
        assert evaluator.simulation_count == 6
        records = [r for r in caplog.records
                   if r.name == "repro.yieldsim.executor"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        assert "broken process pool" in records[0].getMessage()
        assert f"{outcome.retried_chunks} of 3 tasks" in \
            records[0].getMessage()
