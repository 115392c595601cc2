"""Tests for sharded verification (:mod:`repro.yieldsim.shard`):
deterministic sub-stream partitioning, exact merging of sufficient
statistics, telemetry folding, the CLI shard/merge round trip, and the
checkpoint splice + resume flow.

The contract under test is the ISSUE's pair of invariants: a 1-shard
plan followed by a merge is *bit-identical* to the unsharded run, and a
k-shard merge over the same combined sample stream reproduces the
single-run estimate and interval (binomial counts exactly, weighted
sums to float tolerance).
"""

import json
import os
import subprocess
import sys
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from helpers import LinearTemplate
from repro.core import find_all_worst_case_points
from repro.core.optimizer import OptimizerConfig, YieldOptimizer
from repro.errors import ReproError
from repro.evaluation import Evaluator
from repro.runtime import (OptimizerCheckpoint, save_checkpoint,
                           splice_merged_result)
from repro.statistics import SampleSet, wilson_interval
from repro.yieldsim import (MeanShiftIS, OperationalMC, ShardPlan,
                            SimulatorHealth, SobolQMC, SufficientStats,
                            YieldResult, merge_reports, merge_results,
                            merge_stats)
from repro.yieldsim.result import KIND_BINOMIAL
from repro.yieldsim.telemetry import RunReport

THETA = {"f>=": {"temp": 27.0}}
D = {"d0": 1.0, "d1": 0.0}

#: result fields that legitimately differ between an unsharded run and
#: a 1-shard merge (provenance + wall-clock telemetry)
PROVENANCE_KEYS = {"report", "shard_index", "shard_total", "merged_from",
                   "shard_reports"}


def linear_setup(offset=0.0):
    template = LinearTemplate(offset=offset)
    return template, Evaluator(template)


def strip_provenance(result):
    data = result.to_dict()
    return {key: value for key, value in data.items()
            if key not in PROVENANCE_KEYS}


def binomial_result(k, n, shard_index=None, shard_total=None, failed=0):
    """A synthetic MC-flavored result carrying exact count statistics."""
    stats = SufficientStats(kind=KIND_BINOMIAL, n=n, successes=k,
                            failed=failed, w_sum=float(n),
                            w_sq_sum=float(n), w_pass_sum=float(k),
                            w_sq_pass_sum=float(k))
    low, high = wilson_interval(k, n, 0.95)
    return YieldResult(estimator="mc", estimate=k / n, n_samples=n,
                       simulations=n, ci_low=low, ci_high=high,
                       ci_level=0.95, ess=float(n), failed_samples=failed,
                       stats=stats, shard_index=shard_index,
                       shard_total=shard_total)


class TestShardPlan:
    @given(st.integers(1, 500), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_counts_partition_and_offsets_are_consecutive(self, n, total):
        if total > n:
            total = n
        plans = [ShardPlan(i, total) for i in range(total)]
        counts = [plan.count(n) for plan in plans]
        assert sum(counts) == n
        assert max(counts) - min(counts) <= 1
        offset = 0
        for plan, count in zip(plans, counts):
            assert plan.offset(n) == offset
            offset += count

    def test_parse_is_one_based(self):
        plan = ShardPlan.parse("2/4")
        assert (plan.index, plan.total) == (1, 4)
        assert plan.label == "2/4"
        assert ShardPlan.parse(" 1 / 1 ") == ShardPlan(0, 1)

    @pytest.mark.parametrize("text", ["", "0/4", "5/4", "a/4", "2-4", "2/"])
    def test_parse_rejects_malformed_specs(self, text):
        with pytest.raises(ReproError):
            ShardPlan.parse(text)

    def test_validation(self):
        with pytest.raises(ReproError):
            ShardPlan(0, 0)
        with pytest.raises(ReproError):
            ShardPlan(3, 3)
        with pytest.raises(ReproError):
            ShardPlan(3, 4).count(3)  # shard would be empty

    def test_identity_plan_keeps_seed(self):
        assert ShardPlan(0, 1).seed_for(7) == 7
        assert ShardPlan(0, 1).seed_for(None) is None

    def test_sharding_requires_a_seed(self):
        with pytest.raises(ReproError):
            ShardPlan(0, 2).seed_for(None)

    def test_substreams_are_distinct_and_deterministic(self):
        a = SampleSet.draw(50, 3, seed=ShardPlan(0, 2).seed_for(7))
        a2 = SampleSet.draw(50, 3, seed=ShardPlan(0, 2).seed_for(7))
        b = SampleSet.draw(50, 3, seed=ShardPlan(1, 2).seed_for(7))
        assert np.array_equal(a.matrix, a2.matrix)
        assert not np.array_equal(a.matrix, b.matrix)

    def test_sobol_shards_concatenate_to_the_unsharded_set(self):
        full = SampleSet.draw_sobol(128, 4, seed=9)
        parts = [SampleSet.draw_sobol(ShardPlan(i, 3).count(128), 4,
                                      seed=9,
                                      skip=ShardPlan(i, 3).offset(128))
                 for i in range(3)]
        stacked = np.vstack([part.matrix for part in parts])
        assert np.array_equal(stacked, full.matrix)


class TestSingleShardBitIdentity:
    """``--shard 1/1`` followed by a merge is the unsharded run."""

    @pytest.mark.parametrize("name", ["mc", "qmc"])
    def test_binomial_estimators(self, name):
        cls = {"mc": OperationalMC, "qmc": SobolQMC}[name]
        _, ev1 = linear_setup()
        _, ev2 = linear_setup()
        base = cls().estimate(ev1, D, THETA, n_samples=64, seed=7)
        merged = merge_results([cls().estimate(ev2, D, THETA, n_samples=64,
                                               seed=7,
                                               shard=ShardPlan(0, 1))])
        assert strip_provenance(merged) == strip_provenance(base)
        assert merged.merged_from == 1

    def test_importance_sampling(self):
        template, ev1 = linear_setup()
        wc = find_all_worst_case_points(ev1, D, THETA, seed=3)
        base = MeanShiftIS().estimate(ev1, D, THETA, n_samples=90, seed=5,
                                      worst_case=wc)
        _, ev2 = linear_setup()
        wc2 = find_all_worst_case_points(ev2, D, THETA, seed=3)
        merged = merge_results([MeanShiftIS().estimate(
            ev2, D, THETA, n_samples=90, seed=5, worst_case=wc2,
            shard=ShardPlan(0, 1))])
        assert strip_provenance(merged) == strip_provenance(base)


class TestBinomialMerge:
    @given(st.lists(st.tuples(st.integers(1, 200), st.floats(0.0, 1.0)),
                    min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_merged_counts_reproduce_wilson_exactly(self, parts):
        shards = [binomial_result(int(round(n * frac)), n)
                  for n, frac in parts]
        merged = merge_results(shards)
        total_n = sum(r.n_samples for r in shards)
        total_k = sum(r.stats.successes for r in shards)
        assert merged.n_samples == total_n
        assert merged.estimate == total_k / total_n
        assert (merged.ci_low, merged.ci_high) == \
            wilson_interval(total_k, total_n, 0.95)
        assert merged.ess == float(total_n)

    @given(st.lists(st.integers(0, 5), min_size=2, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_failed_samples_fold_additively(self, failures):
        shards = [binomial_result(10, 20 + failed, failed=failed)
                  for failed in failures]
        merged = merge_results(shards)
        assert merged.failed_samples == sum(failures)
        assert merged.stats.failed == sum(failures)

    def test_k_shard_mc_merge_equals_combined_stream_run(self):
        template, _ = linear_setup()
        dim = template.statistical_space.dim
        plans = [ShardPlan(i, 4) for i in range(4)]
        shards = [OperationalMC().estimate(
            Evaluator(LinearTemplate()), D, THETA, n_samples=300, seed=11,
            shard=plan) for plan in plans]
        combined = np.vstack([
            SampleSet.draw(plan.count(300), dim,
                           seed=plan.seed_for(11)).matrix
            for plan in plans])
        single = OperationalMC().estimate(
            Evaluator(LinearTemplate()), D, THETA,
            samples=SampleSet(combined))
        merged = merge_results(shards)
        assert merged.estimate == single.estimate
        assert (merged.ci_low, merged.ci_high) == (single.ci_low,
                                                   single.ci_high)
        assert merged.n_samples == single.n_samples == 300
        assert merged.simulations == single.simulations
        assert merged.bad_fraction == single.bad_fraction
        for key in single.performance_mean:
            assert merged.performance_mean[key] == pytest.approx(
                single.performance_mean[key], rel=1e-12)
            assert merged.performance_std[key] == pytest.approx(
                single.performance_std[key], rel=1e-9)

    def test_k_shard_qmc_merge_equals_unsharded_run(self):
        base = SobolQMC().estimate(Evaluator(LinearTemplate()), D, THETA,
                                   n_samples=128, seed=7)
        shards = [SobolQMC().estimate(
            Evaluator(LinearTemplate()), D, THETA, n_samples=128, seed=7,
            shard=ShardPlan(i, 3)) for i in range(3)]
        merged = merge_results(shards)
        assert merged.estimate == base.estimate
        assert (merged.ci_low, merged.ci_high) == (base.ci_low,
                                                   base.ci_high)
        assert merged.ess == base.ess
        assert merged.n_samples == base.n_samples
        assert merged.simulations == base.simulations


class TestWeightedMerge:
    def test_shard_merge_reproduces_pooled_weight_sums(self):
        template, ev = linear_setup()
        dim = template.statistical_space.dim
        wc = find_all_worst_case_points(ev, D, THETA, seed=3)
        estimator = MeanShiftIS()
        plans = [ShardPlan(i, 3) for i in range(3)]
        shards = [estimator.estimate(
            Evaluator(LinearTemplate()), D, THETA, n_samples=240, seed=5,
            worst_case=wc, shard=plan) for plan in plans]
        components = estimator._components(dim, wc)
        combined = np.vstack([
            estimator._draw(components, plan.count(240), dim,
                            plan.seed_for(5)) for plan in plans])
        single = estimator.estimate(
            Evaluator(LinearTemplate()), D, THETA, worst_case=wc,
            samples=SampleSet(combined))
        merged = merge_results(shards)
        assert merged.estimate == pytest.approx(single.estimate,
                                                rel=1e-9)
        assert merged.ess == pytest.approx(single.ess, rel=1e-9)
        assert merged.standard_error == pytest.approx(
            single.standard_error, rel=1e-9)
        assert merged.ci_low == pytest.approx(single.ci_low, rel=1e-9,
                                              abs=1e-12)
        assert merged.ci_high == pytest.approx(single.ci_high, rel=1e-9,
                                               abs=1e-12)
        for key in single.performance_mean:
            assert merged.performance_mean[key] == pytest.approx(
                single.performance_mean[key], rel=1e-9)
            assert merged.performance_std[key] == pytest.approx(
                single.performance_std[key], rel=1e-6)

    def test_merge_rescales_unequal_log_shifts(self):
        """Shards store weights at their own log scale; the merge must
        bring them to a common scale before pooling (a naive sum of the
        stored ``w_sum`` values would be wrong)."""
        template, ev = linear_setup()
        wc = find_all_worst_case_points(ev, D, THETA, seed=3)
        shards = [MeanShiftIS().estimate(
            Evaluator(LinearTemplate()), D, THETA, n_samples=150, seed=5,
            worst_case=wc, shard=ShardPlan(i, 2)) for i in range(2)]
        assert shards[0].stats.log_shift != shards[1].stats.log_shift
        merged = merge_stats([shard.stats for shard in shards])
        assert merged.log_shift == max(s.stats.log_shift for s in shards)
        # The pooled self-normalized ratio is scale-invariant; check it
        # against the two shards' exact-scale recombination.
        scale = [np.exp(s.stats.log_shift - merged.log_shift)
                 for s in shards]
        expected = (sum(c * s.stats.w_pass_sum
                        for c, s in zip(scale, shards))
                    / sum(c * s.stats.w_sum
                          for c, s in zip(scale, shards)))
        assert merged.w_pass_sum / merged.w_sum == pytest.approx(
            expected, rel=1e-12)

    def test_json_round_trip_preserves_the_merge(self):
        template, ev = linear_setup()
        wc = find_all_worst_case_points(ev, D, THETA, seed=3)
        shards = [MeanShiftIS().estimate(
            Evaluator(LinearTemplate()), D, THETA, n_samples=120, seed=5,
            worst_case=wc, shard=ShardPlan(i, 2)) for i in range(2)]
        direct = merge_results(shards)
        restored = merge_results([
            YieldResult.from_dict(json.loads(shard.to_json()))
            for shard in shards])
        assert strip_provenance(restored) == strip_provenance(direct)


class TestMergeValidation:
    def test_rejects_empty_and_mixed_inputs(self):
        with pytest.raises(ReproError):
            merge_results([])
        qmc = binomial_result(5, 10)
        qmc.estimator = "qmc"
        with pytest.raises(ReproError, match="different estimators"):
            merge_results([binomial_result(5, 10), qmc])

    def test_rejects_mixed_levels_without_explicit_level(self):
        other = binomial_result(5, 10)
        other.ci_level = 0.9
        with pytest.raises(ReproError, match="ci_level"):
            merge_results([binomial_result(5, 10), other])
        merged = merge_results([binomial_result(5, 10), other],
                               level=0.99)
        assert merged.ci_level == 0.99
        assert (merged.ci_low, merged.ci_high) == wilson_interval(10, 20,
                                                                  0.99)

    def test_rejects_inconsistent_shard_provenance(self):
        with pytest.raises(ReproError, match="duplicate shard"):
            merge_results([binomial_result(5, 10, 0, 2),
                           binomial_result(5, 10, 0, 2)])
        with pytest.raises(ReproError, match="different partitions"):
            merge_results([binomial_result(5, 10, 0, 2),
                           binomial_result(5, 10, 1, 3)])

    def test_rejects_mixed_stats_kinds(self):
        weighted = SufficientStats(kind="weighted", n=10, successes=5)
        binomial = SufficientStats(kind="binomial", n=10, successes=5)
        with pytest.raises(ReproError, match="mixed statistics"):
            merge_stats([weighted, binomial])


class TestTelemetryFold:
    def test_merge_reports_adds_counters_and_ors_flags(self):
        a = RunReport(estimator="mc", n_samples=10, simulations=30,
                      cache_hits=2, chunks=1, failed_samples=1,
                      backend="serial", phase_seconds={"draw": 0.5})
        b = RunReport(estimator="mc", n_samples=20, simulations=60,
                      cache_hits=3, chunks=2, retried_chunks=1,
                      degraded_to_serial=True, backend="process-pool",
                      jobs=4, phase_seconds={"draw": 0.25, "reduce": 1.0})
        merged = merge_reports([a, b])
        assert merged.n_samples == 30
        assert merged.simulations == 90
        assert merged.cache_hits == 5
        assert merged.chunks == 3
        assert merged.retried_chunks == 1
        assert merged.failed_samples == 1
        assert merged.degraded_to_serial
        assert not merged.pool_incompatible
        assert merged.jobs == 4
        assert merged.backend == "mixed"
        assert merged.phase_seconds == {"draw": 0.75, "reduce": 1.0}
        assert merge_reports([]) is None

    def test_health_distinguishes_no_data_from_clean(self):
        empty = SimulatorHealth.from_reports([None, None])
        assert empty.no_data
        assert not empty.clean
        observed = SimulatorHealth.from_reports([RunReport()])
        assert not observed.no_data
        assert observed.clean
        incompatible = SimulatorHealth.from_reports(
            [RunReport(pool_incompatible=True)])
        assert incompatible.incompatible_runs == 1
        assert not incompatible.clean


class TestResultStatistics:
    def test_binomial_standard_error_from_counts(self):
        result = binomial_result(30, 40)
        p = 30 / 40
        assert result.standard_error == pytest.approx(
            np.sqrt(p * (1 - p) / 40), rel=1e-12)

    def test_degenerate_estimate_has_nonzero_standard_error_bound(self):
        """A 0-of-N record must not report SE = ci_width / (2z) as if
        the Wilson width were symmetric — with stats present the direct
        binomial SE (0 here) and the honest interval coexist."""
        result = binomial_result(0, 50)
        assert result.standard_error == 0.0
        low, high = result.confidence_interval()
        assert low == 0.0 and high > 0.0

    def test_confidence_interval_recomputable_at_any_level(self):
        result = binomial_result(25, 40)
        assert result.confidence_interval() == (result.ci_low,
                                                result.ci_high)
        assert result.confidence_interval(0.99) == wilson_interval(25, 40,
                                                                   0.99)


#: the record fields :meth:`YieldResult.from_stats` derives from ``stats``
DERIVED_KEYS = ("estimator", "estimate", "n_samples", "ci_low", "ci_high",
                "ci_level", "ess", "bad_fraction", "performance_mean",
                "performance_std", "failed_samples")


def derived_text(result):
    """The derived fields as text: ``repr`` round-trips every float, so
    equal text is bitwise equality (NaN and -0.0 included)."""
    data = result.to_dict()
    return json.dumps({key: data[key] for key in DERIVED_KEYS},
                      sort_keys=True)


class TestOneRendering:
    """Every record, direct or merged, is ``YieldResult.from_stats`` of
    its own sufficient statistics."""

    @staticmethod
    def records(name):
        """A direct run, its three shards and their merge."""
        _, ev = linear_setup(offset=-0.4)
        wc = find_all_worst_case_points(ev, D, THETA, seed=3) \
            if name == "is" else None
        cls = {"mc": OperationalMC, "qmc": SobolQMC, "is": MeanShiftIS}[name]
        direct = cls().estimate(Evaluator(LinearTemplate(offset=-0.4)), D,
                                THETA, n_samples=120, seed=5,
                                worst_case=wc)
        shards = [cls().estimate(Evaluator(LinearTemplate(offset=-0.4)),
                                 D, THETA, n_samples=120, seed=5,
                                 worst_case=wc, shard=ShardPlan(i, 3))
                  for i in range(3)]
        return [direct] + shards + [merge_results(shards)]

    @pytest.mark.parametrize("name", ["mc", "qmc", "is"])
    def test_every_derived_field_renders_from_the_stats(self, name):
        records = self.records(name)
        assert 0.0 < records[0].estimate < 1.0
        for result in records:
            rendered = YieldResult.from_stats(
                result.estimator, result.stats, result.ci_level,
                result.simulations)
            assert derived_text(result) == derived_text(rendered)

    def test_single_merge_renders_at_the_requested_level(self):
        result = OperationalMC().estimate(
            Evaluator(LinearTemplate()), D, THETA, n_samples=40, seed=7)
        assert result.ci_level == 0.95
        merged = merge_results([result], level=0.99)
        assert merged.ci_level == 0.99
        assert (merged.ci_low, merged.ci_high) == \
            result.confidence_interval(0.99)
        assert (merged.ci_low, merged.ci_high) != \
            (result.ci_low, result.ci_high)
        assert merged.estimate == result.estimate


class TestStrictReaders:
    """The readers require every field the writers write."""

    @staticmethod
    def full_record():
        result = OperationalMC().estimate(
            Evaluator(LinearTemplate()), D, THETA, n_samples=20, seed=7,
            shard=ShardPlan(0, 2))
        return merge_results([result]).to_dict()

    @pytest.mark.parametrize("path", [(), ("stats",), ("report",),
                                      ("shard_reports", 0)],
                             ids=["result", "stats", "report",
                                  "shard_report"])
    def test_every_missing_field_is_refused(self, path):
        data = self.full_record()
        assert YieldResult.from_dict(data).to_dict() == data
        keys = [key for key in reduce(getitem, path, data)
                if key != "wall_time_s"]
        assert keys
        for key in keys:
            broken = json.loads(json.dumps(data))
            del reduce(getitem, path, broken)[key]
            with pytest.raises(KeyError):
                YieldResult.from_dict(broken)


class TestOptimizerShardedVerification:
    def quick_config(self, **overrides):
        defaults = dict(max_iterations=2, n_samples_linear=400,
                        n_samples_verify=60, multistart=1, seed=7)
        defaults.update(overrides)
        return OptimizerConfig(**defaults)

    def test_identity_shard_reproduces_unsharded_trajectory(self):
        base = YieldOptimizer(LinearTemplate(),
                              self.quick_config()).run()
        sharded = YieldOptimizer(
            LinearTemplate(),
            self.quick_config(verify_shard=ShardPlan(0, 1))).run()
        assert sharded.d_final == base.d_final
        assert [r.yield_mc for r in sharded.records] == \
            [r.yield_mc for r in base.records]
        for ours, theirs in zip(sharded.records, base.records):
            if theirs.mc is not None:
                assert ours.mc.estimate == theirs.mc.estimate
                assert (ours.mc.ci_low, ours.mc.ci_high) == \
                    (theirs.mc.ci_low, theirs.mc.ci_high)

    def test_shard_provenance_reaches_the_records(self):
        result = YieldOptimizer(
            LinearTemplate(),
            self.quick_config(verify_shard=ShardPlan(0, 2))).run()
        verified = [r.mc for r in result.records if r.mc is not None]
        assert verified
        for mc in verified:
            assert mc.shard_total == 2
            assert mc.shard_index == 0
            assert mc.n_samples == ShardPlan(0, 2).count(60)


class TestCheckpointSplice:
    def test_splice_and_resume_round_trip(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        config = OptimizerConfig(max_iterations=2, n_samples_linear=400,
                                 n_samples_verify=60, multistart=1,
                                 seed=7)
        result = YieldOptimizer(LinearTemplate(), config,
                                checkpoint_path=path).run()
        # A 2-shard verification at the final design, merged then
        # spliced over the last record's (unsharded) verification.
        shards = [OperationalMC().estimate(
            Evaluator(LinearTemplate()), result.d_final, THETA,
            n_samples=80, seed=9, shard=ShardPlan(i, 2))
            for i in range(2)]
        merged = merge_results(shards)
        splice_merged_result(path, merged)
        with open(path) as handle:
            raw = json.load(handle)
        last = raw["records"][-1]
        assert last["yield_mc"] == merged.estimate
        assert last["verify_samples"] == merged.n_samples
        assert last["mc"]["data"]["merged_from"] == 2
        resumed = YieldOptimizer(LinearTemplate(), config,
                                 checkpoint_path=path,
                                 resume=True).run()
        assert resumed.d_final == result.d_final
        assert resumed.records[len(result.records) - 1].yield_mc == \
            merged.estimate
        spliced = resumed.records[len(result.records) - 1].mc
        assert spliced.merged_from == 2
        assert spliced.stats.n == merged.stats.n

    def test_splice_rejects_bad_checkpoints(self, tmp_path):
        from repro.runtime import CheckpointError
        merged = merge_results([binomial_result(5, 10)])
        missing = str(tmp_path / "missing.json")
        with pytest.raises(CheckpointError):
            splice_merged_result(missing, merged)
        empty = str(tmp_path / "empty.json")
        save_checkpoint(empty, OptimizerCheckpoint(
            template_name="ota", seed=3, iteration=0, d_f={}))
        with pytest.raises(CheckpointError, match="no iteration records"):
            splice_merged_result(empty, merged)
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"version": 99, "records": [{}]}))
        with pytest.raises(CheckpointError, match="schema version"):
            splice_merged_result(str(wrong), merged)


SRC = Path(__file__).resolve().parent.parent / "src"

#: the ``yield`` run the process tests shard and merge
YIELD_ARGS = ["yield", "ota", "--estimator", "qmc", "--samples", "64",
              "--seed", "3"]


def run_repro(args, hash_seed, cwd):
    """``python -m repro ARGS`` in a fresh interpreter under a fixed
    ``PYTHONHASHSEED``; returns its stdout."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "repro", *args], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def process_runs(tmp_path_factory):
    """The unsharded ``yield --json`` baseline under hash seeds 1 and 2,
    its two ``--shard`` runs under seeds 3 and 4 and their
    ``merge-verify`` under seed 5, each in its own interpreter."""
    tmp = tmp_path_factory.mktemp("processes")
    baselines = [run_repro(YIELD_ARGS + ["--json"], seed, tmp)
                 for seed in (1, 2)]
    shard_outputs = [
        run_repro(YIELD_ARGS + ["--shard", f"{index}/2",
                                "--out", f"shard{index}.json"], seed, tmp)
        for index, seed in ((1, 3), (2, 4))]
    merge_output = run_repro(["merge-verify", "shard1.json", "shard2.json",
                              "--out", "merged.json"], 5, tmp)
    with open(tmp / "merged.json") as handle:
        merged = json.load(handle)
    return baselines, shard_outputs, merge_output, merged


class TestCli:
    def test_yield_json_is_independent_of_the_hash_seed(self, process_runs):
        """Compared as text, so a key order that follows the hash seed
        (e.g. of ``report.dc_effort``) fails; only the wall-clock fields
        may differ."""
        texts = []
        for output in process_runs[0]:
            result = json.loads(output)
            del result["report"]["phase_seconds"]
            del result["report"]["wall_time_s"]
            texts.append(json.dumps(result, indent=2))
        assert texts[0] == texts[1]

    def test_shard_merge_across_processes_matches_unsharded(
            self, process_runs):
        baselines, shard_outputs, merge_output, artifact = process_runs
        base = json.loads(baselines[0])
        for index, output in enumerate(shard_outputs, start=1):
            assert f"shard {index}/2" in output
        assert "Merged verification (2 of 2 shard(s)" in merge_output
        assert artifact["schema_version"] == 1
        assert artifact["kind"] == "merged-yield-result"
        assert artifact["provenance"]["template"] == "ota"
        assert artifact["provenance"]["shards"] == 2
        merged = artifact["result"]
        for key in ("estimate", "ci_low", "ci_high", "ci_level", "ess",
                    "n_samples", "simulations", "failed_samples",
                    "bad_fraction"):
            assert merged[key] == base[key], key
        assert merged["merged_from"] == 2
        for key in ("n_samples", "simulations"):
            assert merged["report"][key] == base["report"][key], key

    def test_yield_shard_merge_matches_unsharded(self, tmp_path, capsys):
        from repro.cli import main
        common = ["yield", "ota", "--estimator", "qmc", "--samples", "16",
                  "--seed", "3"]
        assert main(common + ["--json"]) == 0
        base = json.loads(capsys.readouterr().out)
        for index in (1, 2):
            out = str(tmp_path / f"shard{index}.json")
            assert main(common + ["--shard", f"{index}/2",
                                  "--out", out]) == 0
            assert f"shard {index}/2" in capsys.readouterr().out
        merged_path = str(tmp_path / "merged.json")
        assert main(["merge-verify",
                     str(tmp_path / "shard1.json"),
                     str(tmp_path / "shard2.json"),
                     "--out", merged_path]) == 0
        rendered = capsys.readouterr().out
        assert "Merged verification (2 of 2 shard(s)" in rendered
        assert "shard 1/2" in rendered and "shard 2/2" in rendered
        with open(merged_path) as handle:
            artifact = json.load(handle)
        assert artifact["schema_version"] == 1
        assert artifact["kind"] == "merged-yield-result"
        assert artifact["provenance"]["template"] == "ota"
        assert artifact["provenance"]["shards"] == 2
        merged = artifact["result"]
        for key in ("estimate", "ci_low", "ci_high", "ess", "n_samples",
                    "simulations", "failed_samples", "bad_fraction"):
            assert merged[key] == base[key], key
        assert merged["merged_from"] == 2

    def test_merge_verify_rejects_unreadable_input(self, tmp_path):
        from repro.cli import main
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit):
            main(["merge-verify", str(bad)])

    def test_merge_verify_rejects_mismatched_shards(self, tmp_path,
                                                    capsys):
        """Shard files disagreeing on seed, template, or estimator must
        be refused — pooling them would silently produce a meaningless
        estimate."""
        from repro.cli import main
        paths = []
        for index, seed in enumerate((3, 4), start=1):
            out = str(tmp_path / f"shard{index}.json")
            assert main(["yield", "ota", "--estimator", "qmc",
                         "--samples", "16", "--seed", str(seed),
                         "--shard", f"{index}/2", "--out", out]) == 0
            paths.append(out)
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(["merge-verify"] + paths)
        message = str(err.value)
        assert "seed" in message and "incompatible" in message
        assert paths[0] in message and paths[1] in message

    def test_merge_verify_rejects_mismatched_template(self, tmp_path,
                                                      capsys):
        from repro.cli import main
        paths = []
        for index, circuit in enumerate(("ota", "miller"), start=1):
            out = str(tmp_path / f"shard{index}.json")
            assert main(["yield", circuit, "--estimator", "qmc",
                         "--samples", "16", "--seed", "3",
                         "--shard", f"{index}/2", "--out", out]) == 0
            paths.append(out)
        capsys.readouterr()
        with pytest.raises(SystemExit, match="template"):
            main(["merge-verify"] + paths)

    @pytest.mark.parametrize("block,key", [("stats", "w_sum"),
                                           ("report", "cache_hits")])
    def test_merge_verify_rejects_a_missing_field(self, tmp_path, capsys,
                                                  block, key):
        from repro.cli import main
        paths = []
        for index in (1, 2):
            out = str(tmp_path / f"shard{index}.json")
            assert main(["yield", "ota", "--estimator", "qmc",
                         "--samples", "16", "--seed", "3",
                         "--shard", f"{index}/2", "--out", out]) == 0
            paths.append(out)
        capsys.readouterr()
        with open(paths[1]) as handle:
            artifact = json.load(handle)
        del artifact["result"][block][key]
        with open(paths[1], "w") as handle:
            json.dump(artifact, handle)
        with pytest.raises(SystemExit) as err:
            main(["merge-verify"] + paths)
        message = str(err.value)
        assert paths[1] in message and key in message
        assert "does not parse as a YieldResult" in message

    def test_parser_accepts_shard_flags(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["yield", "miller", "--shard", "2/4", "--out", "x.json"])
        assert args.shard == "2/4" and args.out == "x.json"
        args = build_parser().parse_args(
            ["optimize", "miller", "--verify-shard", "1/2"])
        assert args.verify_shard == "1/2"
        args = build_parser().parse_args(
            ["merge-verify", "a.json", "b.json", "--checkpoint", "c.json"])
        assert args.shards == ["a.json", "b.json"]
        assert args.checkpoint == "c.json"
