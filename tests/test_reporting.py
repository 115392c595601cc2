"""Tests for the paper-style table renderers."""

import pytest

from helpers import LinearTemplate
from repro.core.mismatch import PairMismatch
from repro.core.optimizer import IterationRecord, OptimizationResult
from repro.reporting import (effort_table, improvement_table, mismatch_table,
                             optimization_trace_table, side_by_side)
from repro.statistics import wilson_interval
from repro.yieldsim import SufficientStats, YieldResult
from repro.yieldsim.result import KIND_BINOMIAL


def record(index, margin, bad, y_mc, mc=None):
    return IterationRecord(
        index=index, d={"d0": 1.0, "d1": 0.0},
        margins={"f>=": margin}, bad_samples={"f>=": bad},
        yield_linear=1.0 - bad, yield_mc=y_mc, mc=mc,
        worst_case={}, simulations=100 * (index + 1),
        constraint_simulations=10,
        gamma=None if index == 0 else 1.0)


def mc_result(mean, std):
    k, n = 270, 300
    low, high = wilson_interval(k, n)
    stats = SufficientStats(kind=KIND_BINOMIAL, n=n, successes=k,
                            w_sum=float(n), w_sq_sum=float(n),
                            w_pass_sum=float(k), w_sq_pass_sum=float(k))
    return YieldResult(
        estimator="mc", estimate=k / n, n_samples=n, simulations=n,
        ci_low=low, ci_high=high, ci_level=0.95, ess=float(n),
        stats=stats, bad_fraction={"f>=": 0.1},
        performance_mean={"f>=": mean}, performance_std={"f>=": std})


class TestTraceTable:
    def test_contains_rows_and_yield(self):
        t = LinearTemplate()
        result = OptimizationResult(
            template_name="fake",
            records=[record(0, -2.3, 1.0, 0.0), record(1, 3.7, 0.0009,
                                                       0.999)],
            d_final={"d0": 1.0, "d1": 0.0}, converged=True,
            wall_time_s=1.0, total_simulations=200,
            total_constraint_simulations=20)
        text = optimization_trace_table(t, result)
        assert "Initial" in text
        assert "1st Iter." in text
        assert "-2.30" in text
        assert "1000.0" in text  # permille
        assert "Y_tilde = 99.9%" in text

    def test_iteration_suffixes(self):
        from repro.reporting.tables import _iteration_label
        assert _iteration_label(0) == "Initial"
        assert _iteration_label(1) == "1st Iter."
        assert _iteration_label(2) == "2nd Iter."
        assert _iteration_label(3) == "3rd Iter."
        assert _iteration_label(4) == "4th Iter."


class TestImprovementTable:
    def test_relative_changes(self):
        t = LinearTemplate()  # spec f >= 0
        before = record(1, 1.0, 0.1, 0.9, mc=mc_result(mean=2.0, std=1.0))
        after = record(2, 2.0, 0.0, 1.0, mc=mc_result(mean=3.0, std=0.5))
        text = improvement_table(t, before, after)
        # dMu/(Mu - fb) = (3-2)/2 = +50 %, dSigma/Sigma = -50 %.
        assert "+50.0%" in text
        assert "-50.0%" in text

    def test_requires_mc_statistics(self):
        t = LinearTemplate()
        with pytest.raises(ValueError):
            improvement_table(t, record(1, 1.0, 0.1, 0.9),
                              record(2, 2.0, 0.0, 1.0))


class TestMismatchTable:
    def test_layout(self):
        pairs = [
            PairMismatch("dvt_M1", "dvt_M2", 0.84, "cmrr>="),
            PairMismatch("dvt_M3", "dvt_M4", 0.11, "cmrr>="),
            PairMismatch("dvt_M9", "dvt_M10", 0.06, "cmrr>="),
        ]
        text = mismatch_table(pairs, top=3)
        assert "P1=(M1,M2)" in text
        assert "0.84" in text
        assert "0.06" in text


class TestEffortTable:
    def test_formats_minutes_and_seconds(self):
        text = effort_table([("Folded-Cascode", 689, 1800.0),
                             ("Miller", 627, 45.0)])
        assert "Folded-Cascode" in text
        assert "30.0 min" in text
        assert "45.0 s" in text


class TestSideBySide:
    def test_banner(self):
        text = side_by_side("paper rows", "our rows", "Table 1")
        assert "Table 1" in text
        assert "--- paper ---" in text
        assert "--- this reproduction ---" in text


class TestQueueTable:
    def test_renders_daemon_stats(self):
        from repro.reporting import queue_table
        text = queue_table({
            "queue": {
                "jobs": 4,
                "by_state": {"done": 2, "queued": 1, "failed": 1},
                "by_tenant": {"alice": {"done": 2},
                              "bob": {"queued": 1, "failed": 1}},
                "cache_hits": 1,
                "simulations": 96,
            },
            "store": {"objects": 3, "root": "/tmp/store", "invalid": 1},
        })
        assert "Jobs (4 total)" in text
        assert "queued" in text and "done" in text and "failed" in text
        assert "alice" in text and "bob" in text
        assert "cache hits   : 1" in text
        assert "simulations  : 96" in text
        assert "3 object(s) at /tmp/store" in text
        assert "store invalid: 1" in text

    def test_accepts_bare_queue_stats(self):
        from repro.reporting import queue_table
        text = queue_table({"jobs": 0, "by_state": {}, "by_tenant": {},
                            "cache_hits": 0, "simulations": 0})
        assert "Jobs (0 total)" in text
