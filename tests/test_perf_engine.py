"""Tests for the batched simulation engine (PR: stacked AC solves,
warm-started DC, persistent shared pool).

The engine's contract is *bit-identity*: batched AC solves equal
one-at-a-time solves, warm-started DC never changes which solution is
found (only how fast), and pooled worst-case / gradient / Monte-Carlo
execution equals the serial path value-for-value and counter-for-counter
(Table-7 accounting).
"""

import math

import numpy as np
import pytest

from helpers import LinearTemplate

import repro.circuit.ac as ac_module
from repro.circuit import Circuit, solve_dc
from repro.circuit.ac import (AcSystem, SECTION_POINTS,
                              shared_matrix_transfers,
                              unity_gain_frequency)
from repro.circuit.dc import GMIN_FINAL, WarmStartCache, gmin_schedule
from repro.circuits.base import WARM_KEY_SIG, _warm_rep
from repro.evaluation.evaluator import Evaluator, _quantize
from repro.evaluation.gradient import (performance_gradient_d,
                                       performance_gradient_s)
from repro.yieldsim import OperationalMC, PoolHandle
from repro.yieldsim.executor import evaluate_probes, unwrap_pool_stack


def rc_lowpass(r=1e3, c=1e-6):
    ckt = Circuit("rc")
    ckt.vsource("V1", "in", "0", dc=0.0, ac=1.0)
    ckt.resistor("R1", "in", "out", r)
    ckt.capacitor("C1", "out", "0", c)
    return ckt, 1.0 / (2 * math.pi * r * c)


def two_stage_gain_block():
    """A linear block with |H| ~ 1e4 at DC and two poles, so the
    unity-gain search has a genuine crossing to find."""
    ckt = Circuit("gain2")
    ckt.vsource("V1", "in", "0", dc=0.0, ac=1.0)
    ckt.vccs("G1", "0", "n1", "in", "0", gm=1e-2)
    ckt.resistor("R1", "n1", "0", 1e4)   # stage gain 100
    ckt.capacitor("C1", "n1", "0", 1e-9)
    ckt.vccs("G2", "0", "out", "n1", "0", gm=1e-3)
    ckt.resistor("R2", "out", "0", 1e5)  # stage gain 100
    ckt.capacitor("C2", "out", "0", 1e-12)
    return ckt


class TestSolveMany:
    def test_bitwise_equal_to_per_frequency_solves(self):
        ckt, fc = rc_lowpass()
        system = AcSystem(ckt, solve_dc(ckt))
        freqs = np.logspace(0, 8, 64)
        batch = system.solve_many(freqs)
        assert batch.shape[0] == 64
        for i, freq in enumerate(freqs):
            one = system.solve(float(freq))
            assert np.array_equal(batch[i], one)

    def test_transfer_many_matches_transfer(self):
        ckt, fc = rc_lowpass()
        system = AcSystem(ckt, solve_dc(ckt))
        freqs = [0.1 * fc, fc, 10 * fc]
        batch = system.transfer_many("out", freqs)
        for i, freq in enumerate(freqs):
            assert batch[i] == system.transfer("out", freq)

    def test_ground_node_returns_zeros(self):
        ckt, _ = rc_lowpass()
        system = AcSystem(ckt, solve_dc(ckt))
        assert np.all(system.transfer_many("0", [1.0, 2.0]) == 0.0)


class TestUnityGainSearch:
    def test_section_one_is_classic_bisection(self, monkeypatch):
        ckt = two_stage_gain_block()
        system = AcSystem(ckt, solve_dc(ckt))
        batched = unity_gain_frequency(system, "out")
        monkeypatch.setattr(ac_module, "SECTION_POINTS", 1)
        bisect = unity_gain_frequency(system, "out")
        # Both brackets shrink below the same log-f tolerance, so the
        # midpoints agree to that tolerance.
        assert math.isclose(math.log10(batched), math.log10(bisect),
                            abs_tol=1e-7)

    def test_batched_search_uses_fewer_solves(self, monkeypatch):
        ckt = two_stage_gain_block()
        system = AcSystem(ckt, solve_dc(ckt))
        calls = {"many": 0, "one": 0}
        orig_many, orig_one = system.solve_many, system.solve

        def counting_many(freqs):
            calls["many"] += 1
            return orig_many(freqs)

        def counting_one(freq):
            calls["one"] += 1
            return orig_one(freq)

        system.solve_many = counting_many
        system.solve = counting_one
        unity_gain_frequency(system, "out")
        batched_rounds = calls["many"]
        calls["many"] = calls["one"] = 0
        monkeypatch.setattr(ac_module, "SECTION_POINTS", 1)
        unity_gain_frequency(system, "out")
        bisect_rounds = calls["many"]
        assert batched_rounds * (SECTION_POINTS + 1) >= bisect_rounds
        assert batched_rounds < bisect_rounds / 2

    def test_sparse_sweep_stops_at_the_first_point_below_unity(
            self, monkeypatch):
        """On the sparse engine each section point is its own
        factorization, so a round solves its points left to right only
        up to the first at or below unity.  On ``two-stage-array`` rows
        from the cold chain (full sweeps, no warm bracket) that gives the
        stacked sweep's f_t bit for bit with fewer factorizations."""
        from repro.circuit.linsolve import PatternFactorizer
        from repro.circuits.two_stage_array import TwoStageArrayOpamp

        def transit_frequencies():
            template = TwoStageArrayOpamp()
            template.warm_dc = False
            d = template.initial_design()
            rows = list(np.random.default_rng(4).standard_normal(
                (3, template.statistical_space.dim)))
            factor = PatternFactorizer.factor
            calls = []

            def counting(self, data, context):
                calls.append(context)
                return factor(self, data, context)

            with monkeypatch.context() as patch:
                patch.setattr(PatternFactorizer, "factor", counting)
                values = template.evaluate_batch(
                    d, rows, template.operating_range.nominal(), ("ft",))
            return [v["ft"] for v in values], len(calls)

        lazy, lazy_calls = transit_frequencies()
        monkeypatch.setattr(AcSystem, "factors_per_frequency",
                            property(lambda self: False))
        stacked, stacked_calls = transit_frequencies()
        assert lazy == stacked and all(ft > 0.0 for ft in lazy)
        assert lazy_calls < stacked_calls

    def test_shared_matrix_transfers_bitwise(self):
        ckt_a, fc = rc_lowpass()
        op = solve_dc(ckt_a)
        sys_a = AcSystem(ckt_a, op)
        # Same topology, different drive -> shared (G, B), distinct rhs.
        ckt_b, _ = rc_lowpass()
        ckt_b.devices[0].ac = 0.5
        sys_b = AcSystem(ckt_b, solve_dc(ckt_b))
        joint = shared_matrix_transfers([sys_a, sys_b], "out", fc)
        assert joint[0] == sys_a.transfer("out", fc)
        assert joint[1] == sys_b.transfer("out", fc)

    def test_shared_matrix_transfers_falls_back_on_mismatch(self):
        ckt_a, fc = rc_lowpass()
        sys_a = AcSystem(ckt_a, solve_dc(ckt_a))
        ckt_c, _ = rc_lowpass(r=2e3)  # different matrix
        sys_c = AcSystem(ckt_c, solve_dc(ckt_c))
        joint = shared_matrix_transfers([sys_a, sys_c], "out", fc)
        assert joint[0] == sys_a.transfer("out", fc)
        assert joint[1] == sys_c.transfer("out", fc)


class TestWarmStartDc:
    def test_valid_warm_start_converges_to_same_solution(self):
        ckt, _ = rc_lowpass()
        cold = solve_dc(ckt)
        warm = solve_dc(ckt, x0=cold.x + 1e-3)
        assert warm.strategy == "newton-warm"
        assert np.allclose(warm.x, cold.x, atol=1e-9)

    def test_garbage_x0_is_ignored(self):
        ckt, _ = rc_lowpass()
        cold = solve_dc(ckt)
        for bad in (np.full(3, np.nan), np.zeros(999)):
            result = solve_dc(ckt, x0=bad)
            assert result.strategy == "newton"
            assert np.array_equal(result.x, cold.x)

    def test_fallback_chain_reaches_gmin_stepping(self):
        """When both the warm and the cold plain-Newton stages fail, the
        unchanged homotopy chain still solves the circuit."""
        from repro.circuit.linsolve import DENSE
        ckt, _ = rc_lowpass()
        reference = solve_dc(ckt)

        class NanSystem:
            def solve_at(self, x):
                return np.full_like(x, np.nan)

        class FlakyBackend:
            """Non-finite updates for the first two stages (newton-warm
            and newton), the dense backend afterwards."""

            stages = 0

            def dc_system(self, circuit, layout, gmin):
                self.stages += 1
                if self.stages <= 2:
                    return NanSystem()
                return DENSE.dc_system(circuit, layout, gmin)

        backend = FlakyBackend()
        result = solve_dc(ckt, x0=reference.x, backend=backend)
        assert result.strategy == "gmin-stepping"
        assert backend.stages == 2 + len(list(gmin_schedule()))
        assert np.allclose(result.x, reference.x, atol=1e-6)

    def test_warm_cache_fifo_and_negative_caching(self):
        cache = WarmStartCache(maxsize=2)
        cache.store(("a",), np.ones(3))
        cache.store(("b",), None)  # failed anchor, negatively cached
        assert cache.lookup(("b",)) is None
        cache.store(("c",), np.zeros(2))  # evicts ("a",)
        assert len(cache) == 2
        assert cache.lookup(("a",)) is WarmStartCache._MISSING
        assert cache.counts["hits"] == 1 and cache.counts["misses"] == 1

    def test_anchor_ft_bench_reuses_the_solved_operating_point(
            self, monkeypatch):
        """The anchor's f_t is measured on the representative's own DC
        solution: the bench never solves its operating point again."""
        import repro.evaluation.measure as measure_module
        from repro.circuits import MillerOpamp

        def refuse(*args, **kwargs):
            raise AssertionError("the anchor bench re-solved its DC point")

        monkeypatch.setattr(measure_module, "solve_dc", refuse)
        t = MillerOpamp()
        _, _, ft = t._warm_anchor(t.initial_design(),
                                  t.operating_range.nominal())
        assert ft is not None and ft > 0.0

    def test_warm_rep_quantization(self):
        assert _warm_rep(0.0) == 0.0
        assert _warm_rep(123.4e-6) == pytest.approx(120e-6)
        assert _warm_rep(-123.4e-6) == pytest.approx(-120e-6)
        # Pure function of the cell: nearby values share a representative.
        assert _warm_rep(121e-6) == _warm_rep(118e-6)
        assert math.isnan(_warm_rep(float("nan")))
        assert WARM_KEY_SIG == 2

    def test_anchor_is_order_independent(self):
        """The warm anchor is solved at the cell representative, so the
        evaluation *order* cannot change any value (serial/parallel
        bit-identity of warm-started runs)."""
        from repro.circuits import MillerOpamp
        d = MillerOpamp().initial_design()
        theta_a = {"temp": 27.0, "vdd": 3.3}
        theta_b = {"temp": 27.4, "vdd": 3.3}  # same quantized cell
        t1 = MillerOpamp()
        s0 = t1.statistical_space.nominal()
        va = t1.evaluate(d, s0, theta_a)
        vb = t1.evaluate(d, s0, theta_b)
        t2 = MillerOpamp()
        wb = t2.evaluate(d, s0, theta_b)  # reversed arrival order
        wa = t2.evaluate(d, s0, theta_a)
        assert va == wa and vb == wb
        # the second point reused the anchor
        assert t1._warm_cache.counts["hits"] >= 1


class TestEvaluatorKey:
    def test_quantize_absorbs_roundtrip_noise(self):
        value = 1.2345e-6
        noisy = float(f"{value:.15e}")
        assert _quantize(value) == _quantize(noisy + value * 1e-14)

    def test_quantize_separates_fd_steps(self):
        value = 3.3
        assert _quantize(value) != _quantize(value * (1 + 1e-3))
        assert _quantize(value) != _quantize(value * (1 + 1e-6))

    def test_quantize_nonfinite(self):
        assert _quantize(float("inf")) == _quantize(float("inf"))
        nan_key = _quantize(float("nan"))
        assert nan_key != nan_key  # NaN never matches the cache

    def test_theta_order_does_not_matter(self):
        template = LinearTemplate()
        ev = Evaluator(template)
        d = template.initial_design()
        s = np.zeros(template.statistical_space.dim)
        k1 = ev._key(d, s, {"temp": 27.0})
        k2 = ev._key(d, s, dict([("temp", 27.0)]))
        assert k1 == k2

    def test_unknown_theta_names_fall_back_to_named_key(self):
        template = LinearTemplate()
        ev = Evaluator(template)
        d = template.initial_design()
        s = np.zeros(template.statistical_space.dim)
        k1 = ev._key(d, s, {"weird": 1.0})
        k2 = ev._key(d, s, {"weird": 1.0, "temp": 27.0})
        assert k1 != k2

    def test_cache_folding_reproduces_serial_counts(self):
        template = LinearTemplate()
        d = template.initial_design()
        dim = template.statistical_space.dim
        points = [np.full(dim, 0.1 * i) for i in range(4)]
        theta = {"temp": 27.0}
        serial = Evaluator(template)
        for s in points + points:  # second pass = pure hits
            serial.evaluate(d, s, theta)
        # "Worker" evaluates the same points, parent folds its writes.
        worker = Evaluator(template)
        with worker.recording() as writes:
            for s in points + points:
                worker.evaluate(d, s, theta)
        parent = Evaluator(template)
        new, dup = parent.absorb_cache(writes)
        parent.counts.absorb({"simulations": new,
                              "requests": worker.request_count,
                              "cache_hits": worker.cache_hits + dup,
                              "cache_misses": new})
        assert parent.simulation_count == serial.simulation_count
        assert parent.cache_hits == serial.cache_hits
        assert parent.request_count == serial.request_count
        assert parent.cache_size == serial.cache_size


class TestUnwrapPoolStack:
    def test_plain_and_guarded_stacks_qualify(self):
        from repro.runtime import FaultPolicy, FaultTolerantEvaluator
        ev = Evaluator(LinearTemplate())
        assert unwrap_pool_stack(ev) == (ev, None, None)
        guarded = FaultTolerantEvaluator(ev, FaultPolicy())
        inner, policy, mode = unwrap_pool_stack(guarded)
        assert inner is ev and policy is guarded.policy

    def test_fault_injecting_stack_stays_serial(self):
        from repro.runtime import FaultInjectingEvaluator
        ev = Evaluator(LinearTemplate())
        injecting = FaultInjectingEvaluator(ev, rate=0.5, seed=1)
        assert unwrap_pool_stack(injecting) is None
        assert PoolHandle.for_evaluator(injecting, jobs=2) is None

    def test_jobs_below_two_means_no_pool(self):
        ev = Evaluator(LinearTemplate())
        assert PoolHandle.for_evaluator(ev, jobs=1) is None


@pytest.fixture(scope="module")
def linear_pool():
    template = LinearTemplate()
    evaluator = Evaluator(template)
    pool = PoolHandle.for_evaluator(evaluator, jobs=2)
    assert pool is not None
    yield template, evaluator, pool
    pool.close()


def _counters(evaluator):
    return (evaluator.simulation_count, evaluator.cache_hits,
            evaluator.request_count)


class TestSharedPool:
    def test_pooled_probes_match_serial(self, linear_pool):
        template, _, pool = linear_pool
        d = template.initial_design()
        dim = template.statistical_space.dim
        theta = {"temp": 27.0}
        points = [(d, np.full(dim, 0.05 * i), theta) for i in range(6)]
        points.append((dict(d, d0=2.0), np.zeros(dim), theta))
        serial = Evaluator(template)
        expected = [serial.evaluate(*p) for p in points]
        pooled = Evaluator(template)
        dispatched = pool.tasks_dispatched
        assert evaluate_probes(pooled, points, pool) == expected
        assert pool.tasks_dispatched == dispatched + pool.jobs
        assert _counters(pooled) == _counters(serial)

    def test_pooled_gradient_s_matches_serial(self, linear_pool):
        template, _, pool = linear_pool
        d = template.initial_design()
        s_hat = np.full(template.statistical_space.dim, 0.3)
        theta = {"temp": 27.0}
        serial, pooled = Evaluator(template), Evaluator(template)
        expected = performance_gradient_s(serial, "f", d, s_hat, theta)
        dispatched = pool.tasks_dispatched
        got = performance_gradient_s(pooled, "f", d, s_hat, theta,
                                     pool=pool)
        assert pool.tasks_dispatched > dispatched
        assert got.tobytes() == expected.tobytes()
        assert _counters(pooled) == _counters(serial)

    def test_pooled_mc_matches_serial_bitwise(self, linear_pool):
        template, _, pool = linear_pool
        d = template.initial_design()
        theta_wc = {"f>=": {"temp": 27.0}}
        serial_ev = Evaluator(template)
        serial = OperationalMC().estimate(serial_ev, d, theta_wc,
                                          n_samples=64, seed=3)
        pooled_ev = Evaluator(template)
        estimator = OperationalMC()
        estimator.pool = pool
        pooled = estimator.estimate(pooled_ev, d, theta_wc,
                                    n_samples=64, seed=3)
        assert pooled.estimate == serial.estimate
        assert pooled.report.backend == "process-pool"
        assert pooled_ev.simulation_count == serial_ev.simulation_count
        assert pooled_ev.cache_hits == serial_ev.cache_hits
        assert pooled_ev.request_count == serial_ev.request_count

    def test_dead_pool_degrades_to_serial(self, linear_pool):
        template, _, _ = linear_pool
        evaluator = Evaluator(template)
        pool = PoolHandle.for_evaluator(evaluator, jobs=2)
        pool.kill()
        assert not pool.alive
        d = template.initial_design()
        dim = template.statistical_space.dim
        points = [(d, np.full(dim, 0.1 * i), {"temp": 27.0})
                  for i in range(4)]
        serial = Evaluator(template)
        assert evaluate_probes(evaluator, points, pool) == \
            [serial.evaluate(*p) for p in points]
        assert _counters(evaluator) == _counters(serial)
        estimator = OperationalMC()
        estimator.pool = pool
        result = estimator.estimate(evaluator, d, {"f>=": {"temp": 27.0}},
                                    n_samples=16, seed=3)
        assert result.report.backend == "serial"
        assert result.report.degraded_to_serial

    def test_incompatible_template_is_rejected(self, linear_pool):
        _, _, pool = linear_pool
        other = Evaluator(LinearTemplate(offset=9.0))
        assert not pool.compatible(other)

    def test_dead_pool_single_sample_is_not_flagged_degraded(self,
                                                             linear_pool):
        """n == 1 runs serially by design; a dead pool must not make
        that look like a degradation."""
        template, _, _ = linear_pool
        evaluator = Evaluator(template)
        pool = PoolHandle.for_evaluator(evaluator, jobs=2)
        pool.kill()
        estimator = OperationalMC()
        estimator.pool = pool
        result = estimator.estimate(evaluator, template.initial_design(),
                                    {"f>=": {"temp": 27.0}},
                                    n_samples=1, seed=3)
        assert result.report.backend == "serial"
        assert not result.report.degraded_to_serial
        assert not result.report.pool_incompatible

    def test_alive_pool_incompatible_stack_is_flagged(self, linear_pool):
        """An alive pool that cannot serve the evaluation stack runs
        the batch serially and must say so (pool_incompatible), not
        pass silently as a clean serial run."""
        _, _, pool = linear_pool
        other = Evaluator(LinearTemplate(offset=9.0))
        assert pool.alive and not pool.compatible(other)
        estimator = OperationalMC()
        estimator.pool = pool
        result = estimator.estimate(other,
                                    other.template.initial_design(),
                                    {"f>=": {"temp": 27.0}},
                                    n_samples=8, seed=3)
        assert result.report.backend == "serial"
        assert result.report.pool_incompatible
        assert not result.report.degraded_to_serial


@pytest.mark.parametrize("circuit", ["folded_cascode", "miller"])
def test_worst_case_and_gradients_parallel_bit_identity(circuit):
    """The ISSUE acceptance: pooled worst-case searches and gradient
    probes are bit-identical to serial on both benchmark circuits, and
    Table-7 counters match exactly."""
    from repro.circuits import FoldedCascodeOpamp, MillerOpamp
    from repro.core.worst_case import find_all_worst_case_points
    from repro.spec.operating import find_worst_case_operating_points

    make = {"folded_cascode": FoldedCascodeOpamp,
            "miller": MillerOpamp}[circuit]

    def one_pass(jobs):
        template = make()
        evaluator = Evaluator(template)
        d = template.initial_design()
        s0 = template.statistical_space.nominal()
        theta_wc = find_worst_case_operating_points(
            lambda theta: evaluator.evaluate(d, s0, theta),
            template.specs, template.operating_range)
        pool = PoolHandle.for_evaluator(evaluator, jobs=jobs)
        try:
            wc = find_all_worst_case_points(evaluator, d, theta_wc,
                                            seed=5, pool=pool)
            spec = template.specs[0]
            grads = performance_gradient_d(
                evaluator, spec.performance, d, s0,
                theta_wc[next(iter(theta_wc))], pool=pool)
            grads_s = performance_gradient_s(
                evaluator, spec.performance, d, s0,
                theta_wc[next(iter(theta_wc))], pool=pool)
        finally:
            if pool is not None:
                pool.close()
        counters = (evaluator.simulation_count, evaluator.request_count,
                    evaluator.cache_hits, evaluator.cache_misses)
        return wc, grads, grads_s, counters

    wc_s, gd_s, gs_s, counters_s = one_pass(jobs=1)
    wc_p, gd_p, gs_p, counters_p = one_pass(jobs=2)
    assert counters_s == counters_p
    assert gd_s == gd_p
    assert np.array_equal(gs_s, gs_p)
    assert set(wc_s) == set(wc_p)
    for key in wc_s:
        a, b = wc_s[key], wc_p[key]
        assert a.beta_wc == b.beta_wc, key
        assert np.array_equal(a.s_wc, b.s_wc), key
        assert np.array_equal(a.gradient, b.gradient), key
        assert a.g_wc == b.g_wc and a.g_nominal == b.g_nominal
        assert a.method == b.method and a.iterations == b.iterations


class TestOptimizerPoolAndBudget:
    def _config(self, **kw):
        from repro.core import OptimizerConfig
        base = dict(n_samples_linear=500, n_samples_verify=60,
                    max_iterations=3, seed=11)
        base.update(kw)
        return OptimizerConfig(**base)

    def test_pooled_run_matches_serial(self):
        from repro.core import YieldOptimizer
        serial = YieldOptimizer(LinearTemplate(),
                                self._config(jobs=1)).run()
        pooled = YieldOptimizer(LinearTemplate(),
                                self._config(jobs=2)).run()
        assert pooled.d_final == serial.d_final
        assert pooled.total_simulations == serial.total_simulations
        assert pooled.total_cache_hits == serial.total_cache_hits
        assert [r.yield_mc for r in pooled.records] == \
            [r.yield_mc for r in serial.records]
        assert [r.margins for r in pooled.records] == \
            [r.margins for r in serial.records]
        assert pooled.pool_jobs == 2 and pooled.pool_tasks > 0
        assert not pooled.pool_died
        assert pooled.health is not None and pooled.health.runs > 0

    def test_checkpoint_resume_of_pooled_run(self, tmp_path):
        from repro.core import YieldOptimizer
        path = str(tmp_path / "ckpt.json")
        straight = YieldOptimizer(LinearTemplate(),
                                  self._config(jobs=2)).run()
        YieldOptimizer(LinearTemplate(),
                       self._config(jobs=2, max_iterations=1),
                       checkpoint_path=path).run()
        resumed = YieldOptimizer(LinearTemplate(), self._config(jobs=2),
                                 checkpoint_path=path, resume=True).run()
        assert resumed.d_final == straight.d_final
        assert len(resumed.records) == len(straight.records)
        assert [r.yield_mc for r in resumed.records] == \
            [r.yield_mc for r in straight.records]
        assert resumed.total_simulations == straight.total_simulations

    def test_budget_shrinks_verification_instead_of_skipping(self):
        from repro.core import YieldOptimizer
        from repro.runtime import RunBudget
        probe = YieldOptimizer(LinearTemplate(),
                               self._config(max_iterations=1)).run()
        sims_before_verify = probe.records[0].simulations \
            - probe.records[0].verify_samples  # 1 theta group
        budget = RunBudget(max_simulations=sims_before_verify + 17)
        shrunk = YieldOptimizer(LinearTemplate(),
                                self._config(max_iterations=1),
                                budget=RunBudget(
                                    max_simulations=budget.max_simulations)
                                ).run()
        record = shrunk.records[0]
        assert record.verify_shrunk
        assert record.verify_samples is not None
        assert 0 < record.verify_samples <= 17
        assert record.yield_mc is not None  # shrunk, not skipped

    def test_budget_zero_remaining_skips_with_marker(self):
        from repro.core import YieldOptimizer
        from repro.runtime import RunBudget
        result = YieldOptimizer(LinearTemplate(),
                                self._config(max_iterations=1),
                                budget=RunBudget(max_simulations=1)).run()
        record = result.records[0]
        assert record.verify_shrunk
        assert record.verify_samples == 0
        assert record.yield_mc is None

    def test_verify_fields_roundtrip_through_checkpoint(self, tmp_path):
        from repro.runtime.checkpoint import (record_from_dict,
                                              record_to_dict)
        from repro.core.optimizer import IterationRecord
        record = IterationRecord(
            index=1, d={"d0": 1.0}, margins={"f": 0.5},
            bad_samples={"f": 0.01}, yield_linear=0.9, yield_mc=None,
            mc=None, worst_case={}, simulations=10,
            constraint_simulations=2, gamma=0.5,
            verify_samples=42, verify_shrunk=True)
        data = record_to_dict(record)
        back = record_from_dict(data, LinearTemplate())
        assert back.verify_samples == 42 and back.verify_shrunk
        # Every written field is required: a record without them is
        # malformed, not silently defaulted.
        del data["verify_samples"], data["verify_shrunk"]
        with pytest.raises(KeyError):
            record_from_dict(data, LinearTemplate())


class TestReporting:
    def test_trace_table_reports_shrunken_verification(self):
        from repro.core import YieldOptimizer
        from repro.reporting import optimization_trace_table
        from repro.runtime import RunBudget
        template = LinearTemplate()
        config_kw = dict(n_samples_linear=500, n_samples_verify=60,
                         max_iterations=1, seed=11)
        from repro.core import OptimizerConfig
        probe = YieldOptimizer(template,
                               OptimizerConfig(**config_kw)).run()
        sims = probe.records[0].simulations - probe.records[0].verify_samples
        result = YieldOptimizer(
            LinearTemplate(), OptimizerConfig(**config_kw),
            budget=RunBudget(max_simulations=sims + 9)).run()
        table = optimization_trace_table(LinearTemplate(), result)
        assert "verification shrunk to N =" in table

    def test_health_table_renders_pool_usage(self):
        from repro.core import OptimizerConfig, YieldOptimizer
        from repro.reporting import health_table
        result = YieldOptimizer(
            LinearTemplate(),
            OptimizerConfig(n_samples_linear=500, n_samples_verify=40,
                            max_iterations=1, seed=11, jobs=2)).run()
        text = health_table(result)
        assert "pool workers" in text and "pool tasks" in text
        # LinearTemplate has no warm cache: give the record the counts a
        # circuit template reports.  Pooled, they are worker totals.
        from dataclasses import replace
        counted = replace(result, warm_cache={"hits": 5, "misses": 2},
                          dc_effort={"newton-warm": 7})
        text = health_table(counted)
        assert "warm-cache hits/misses (worker totals) : 5/2" in text
        assert "dc solve strategies (worker totals)" in text
        serial = health_table(replace(counted, pool_tasks=0))
        assert "warm-cache hits/misses" in serial
        assert "worker totals" not in serial

    def test_health_table_empty_for_clean_serial_run(self):
        from repro.core import OptimizerConfig, YieldOptimizer
        result = YieldOptimizer(
            LinearTemplate(),
            OptimizerConfig(n_samples_linear=500, n_samples_verify=40,
                            max_iterations=1, seed=11)).run()
        from repro.reporting import health_table
        assert health_table(result) == ""
