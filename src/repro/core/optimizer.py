"""The feasibility-guided yield optimizer — the Fig. 6 loop.

One iteration:

1. worst-case operating points per spec (Eq. 2, corner enumeration),
2. worst-case statistical points per spec (Eq. 8, warm-started),
3. spec-wise linear performance models at those points (Eq. 16), with
   mirrored models for quadratic/mismatch performances (Eq. 21-22),
4. linearization of the functional constraints (Eq. 15),
5. coordinate-search maximization of the linearized-model Monte-Carlo
   yield estimate inside the linearized feasibility region (Eq. 17-20),
6. simulation-based feasibility line search back onto the true feasible
   region (Eq. 23).

The loop starts from the closest feasible point to the initial design
(Sec. 5.5) and stops when the yield estimate no longer improves.

Ablation switches reproduce the paper's negative results:

* ``use_constraints=False``   — Table 3 (optimizer wanders out of the
  weakly-nonlinear region; true yield stays at 0 %),
* ``linearize_at="nominal"``  — Table 4 (tangents at s = 0 misjudge the
  specs, especially quadratic CMRR; true yield stays at 0 %).

The loop routes every evaluator call through the
:mod:`repro.runtime` fault-tolerance layer: verification Monte-Carlo
runs in lenient mode (a non-convergent sample is recorded as
spec-violating and counted in ``failed_samples``), model building runs
in strict mode (retry-with-jitter, then abort with the partial trace).
Per-run :class:`~repro.runtime.RunBudget` limits and per-iteration JSON
checkpointing make runs schedulable and resumable; see
``OptimizationResult.stop_reason`` for how a run ended.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from ..errors import ReproError
from ..evaluation.evaluator import Evaluator
from ..evaluation.template import CircuitTemplate
from ..runtime import (FaultPolicy, FaultTolerantEvaluator,
                       OptimizerCheckpoint, RunBudget, STOP_ABORTED_PREFIX,
                       STOP_CONVERGED, STOP_MAX_ITERATIONS,
                       load_checkpoint, save_checkpoint)
from ..spec.operating import find_worst_case_operating_points
from ..statistics.sampling import SampleSet
from ..yieldsim import (OperationalMC, ShardPlan, SimulatorHealth,
                        YieldEstimator, YieldResult)
from .constraints import UnconstrainedRegion, linearize_constraints
from .coordinate_search import coordinate_search
from .estimator import LinearizedYieldEstimator
from .feasible_point import find_feasible_point
from .line_search import feasibility_line_search
from .linear_model import build_spec_models
from .worst_case import WorstCaseResult, find_all_worst_case_points


@dataclass
class OptimizerConfig:
    """Knobs of the Fig. 6 loop (defaults follow the paper's setup)."""

    n_samples_linear: int = 10000  # N of Eq. 17 (paper: 10,000)
    n_samples_verify: int = 300  # N of the Y_tilde verification (paper: 300)
    max_iterations: int = 5
    min_improvement: float = 1e-3  # stop when Y_bar gain falls below this
    seed: int = 2001
    use_constraints: bool = True  # False = Table 3 ablation
    linearize_at: str = "worst_case"  # "nominal" = Table 4 ablation
    multistart: int = 2  # worst-case search restarts
    verify: bool = True  # run the simulation-based Y_tilde checks
    #: per-iteration relative trust region on each design parameter; the
    #: linearized models are only trusted this far from the expansion point
    trust_radius: float = 0.35
    #: damped step acceptance: when a spec whose nominal margin was positive
    #: at d_f flips negative at the proposed point (a linearization error
    #: the models cannot see), the step is halved, up to this many times.
    #: Each check costs at most n_spec simulations.  0 disables.
    max_step_halvings: int = 2
    #: worker processes of the persistent shared pool (1 = serial); the
    #: pool is created once per run and shared by the worst-case
    #: searches, the gradient probes and the verification Monte-Carlo.
    #: Results are bit-identical to a serial run.
    jobs: int = 1
    #: run only this shard of every verification Monte-Carlo (one
    #: machine of a ``ShardPlan(i, k)`` fleet); the per-iteration
    #: results carry shard provenance and merge exactly with the other
    #: shards' via :func:`repro.yieldsim.merge_results`.  ``None`` (and
    #: the 1-shard plan) reproduce the unsharded run bit for bit.
    verify_shard: Optional[ShardPlan] = None


@dataclass
class IterationRecord:
    """State after one optimizer iteration (row group of Tables 1/3/4/6).

    ``index = 0`` is the initial (feasible) design before any yield step.
    """

    index: int
    d: Dict[str, float]
    #: spec key -> f - f_b at (d, s=0, theta_wc) in presentation units
    margins: Dict[str, float]
    #: spec key -> bad-sample fraction in the linearized models
    bad_samples: Dict[str, float]
    #: linearized-model yield estimate Y_bar at this design
    yield_linear: float
    #: simulation-based operational yield Y_tilde (None if not verified)
    yield_mc: Optional[float]
    #: the verifying estimator's full result (None if not verified)
    mc: Optional[YieldResult]
    #: worst-case results used in this iteration (mismatch analysis input)
    worst_case: Dict[str, WorstCaseResult]
    #: cumulative simulation counts up to the end of this record
    simulations: int
    constraint_simulations: int
    #: line-search step fraction (None for the initial record)
    gamma: Optional[float] = None
    #: verification samples that failed to evaluate under the fault
    #: policy and were counted as spec-violating (Eq. 6-7 denominator
    #: still includes them)
    failed_samples: int = 0
    #: verification sample count actually used (None = not verified);
    #: smaller than ``n_samples_verify`` when the simulation budget
    #: could no longer afford the full verification
    verify_samples: Optional[int] = None
    #: True when the remaining simulation budget shrank (or skipped)
    #: this record's verification
    verify_shrunk: bool = False


@dataclass
class OptimizationResult:
    """Full optimizer trace."""

    template_name: str
    records: List[IterationRecord]
    d_final: Dict[str, float]
    converged: bool
    wall_time_s: float
    total_simulations: int
    total_constraint_simulations: int
    #: evaluator requests answered from cache / issued in total (Table-7
    #: effort accounting; defaults keep older call sites working)
    total_cache_hits: int = 0
    total_requests: int = 0
    #: why the loop ended: "converged", "max_iterations", "deadline",
    #: "sim_budget", or "aborted: <ErrorType>: <message>"
    stop_reason: str = STOP_MAX_ITERATIONS
    #: total evaluations counted as failed by the fault policy
    total_failed_samples: int = 0
    #: total retry-with-jitter attempts issued by the fault policy
    total_retried_evaluations: int = 0
    #: aggregated failure/recovery telemetry of the verification runs
    health: Optional[SimulatorHealth] = None
    #: shared-pool usage: worker count, tasks dispatched, and whether the
    #: pool died mid-run (timeout/breakage -> serial degradation)
    pool_jobs: int = 1
    pool_tasks: int = 0
    pool_died: bool = False
    #: warm-start cache counters of the template at run end
    #: (hits/misses/chain_seeds/chain_solves/evictions/...), when the
    #: template exposes them.  With a shared pool (``pool_tasks > 0``)
    #: they add up the workers' private anchor caches, so they depend
    #: on which worker ran which task and vary between identical runs.
    warm_cache: Optional[Dict[str, int]] = None
    #: per-strategy DC solve counters of the template at run end
    #: (newton-warm/newton/gmin-stepping/source-stepping/failed), when
    #: the template exposes them; worker totals like ``warm_cache``
    dc_effort: Optional[Dict[str, int]] = None

    @property
    def initial(self) -> IterationRecord:
        return self.records[0]

    @property
    def aborted(self) -> bool:
        """True when the run ended on an abort-class error (the trace is
        still valid up to the last completed iteration)."""
        return self.stop_reason.startswith(STOP_ABORTED_PREFIX)

    @property
    def final(self) -> IterationRecord:
        return self.records[-1]

    def final_yield(self) -> Optional[float]:
        return self.final.yield_mc


class YieldOptimizer:
    """Driver of the Fig. 6 loop over one circuit template."""

    def __init__(self, template: CircuitTemplate,
                 config: Optional[OptimizerConfig] = None,
                 evaluator: Optional[Evaluator] = None,
                 verifier: Optional[YieldEstimator] = None,
                 policy: Optional[FaultPolicy] = None,
                 budget: Optional[RunBudget] = None,
                 checkpoint_path: Optional[str] = None,
                 resume: bool = False):
        self.template = template
        self.config = config or OptimizerConfig()
        self.evaluator = evaluator or Evaluator(template)
        #: pluggable Y_tilde verifier; the paper's Eq. 6-7 Monte-Carlo by
        #: default, or e.g. :class:`repro.yieldsim.MeanShiftIS`, which
        #: reuses the iteration's Eq. 8 worst-case points as mean shifts
        self.verifier = verifier or OperationalMC()
        #: fault policy every evaluator call is routed through
        self.policy = policy or FaultPolicy()
        #: wall-clock/simulation budget of this run
        self.budget = budget or RunBudget()
        #: JSON checkpoint written after every completed iteration
        self.checkpoint_path = checkpoint_path
        #: continue from ``checkpoint_path`` when it exists
        self.resume = resume
        self._guarded = FaultTolerantEvaluator(self.evaluator, self.policy)

    # -- helpers -----------------------------------------------------------------
    def _theta_wc(self, d: Mapping[str, float]) -> Dict[str, Dict[str, float]]:
        s0 = self.template.statistical_space.nominal()

        def evaluate(theta):
            return self._guarded.evaluate(d, s0, theta)

        return find_worst_case_operating_points(
            evaluate, self.template.specs, self.template.operating_range)

    def _margins(self, d: Mapping[str, float],
                 theta_wc: Mapping[str, Mapping[str, float]]
                 ) -> Dict[str, float]:
        s0 = self.template.statistical_space.nominal()
        return self._guarded.margins(d, s0, theta_wc)

    def _verify_budget(self, theta_wc: Mapping[str, Mapping[str, float]]
                       ) -> tuple:
        """``(n_samples, shrunk)`` the simulation budget can afford.

        A full verification costs roughly ``n_samples x theta_groups``
        simulations.  Rather than blowing through ``max_simulations`` (or
        skipping verification outright and returning a trace with no
        Y_tilde at all), the sample count is shrunk to what the remaining
        budget covers; the shrunken N is recorded in the trace.
        """
        n = self.config.n_samples_verify
        if self.budget.max_simulations is None:
            return n, False
        from ..spec.operating import group_by_theta
        groups = max(1, len(group_by_theta(
            theta_wc, self.template.operating_range)))
        remaining = self.budget.max_simulations \
            - self.evaluator.simulation_count
        affordable = max(0, remaining) // groups
        if affordable >= n:
            return n, False
        return int(affordable), True

    def _verify(self, d: Mapping[str, float],
                theta_wc: Mapping[str, Mapping[str, float]],
                worst_case: Optional[Mapping[str, WorstCaseResult]] = None
                ) -> tuple:
        """``(result_or_None, n_used_or_None, shrunk)``."""
        if not self.config.verify:
            return None, None, False
        n, shrunk = self._verify_budget(theta_wc)
        if n < 1:
            # Budget entirely spent: nothing affordable, record the skip.
            return None, 0, True
        # Lenient mode: a sample the simulator cannot evaluate is a
        # failed sample (counts against the yield), not a failed run.
        with self._guarded.lenient():
            result = self.verifier.estimate(
                self._guarded, d, theta_wc, n_samples=n,
                seed=self.config.seed + 17,
                worst_case=worst_case, shard=self.config.verify_shard)
        return result, n, shrunk

    def _budget_stop(self, start_time: float,
                     wall_offset: float) -> Optional[str]:
        if self.budget.unlimited:
            return None
        elapsed = wall_offset + (time.time() - start_time)
        return self.budget.exhausted(elapsed,
                                     self.evaluator.simulation_count)

    def _write_checkpoint(self, iteration: int,
                          records: List[IterationRecord],
                          d_f: Mapping[str, float],
                          previous_wc: Optional[Dict[str,
                                                     WorstCaseResult]],
                          samples: SampleSet, start_time: float,
                          wall_offset: float,
                          stop_reason: Optional[str] = None) -> None:
        if not self.checkpoint_path:
            return
        save_checkpoint(self.checkpoint_path, OptimizerCheckpoint(
            template_name=self.template.name,
            seed=self.config.seed,
            iteration=iteration,
            d_f=dict(d_f),
            records=records,
            previous_wc=previous_wc,
            sample_state={"n": samples.n, "dim": samples.dim,
                          "seed": self.config.seed},
            counters=dict(self.evaluator.counts),
            wall_time_s=wall_offset + (time.time() - start_time),
            stop_reason=stop_reason))

    def _load_checkpoint(self) -> Optional[OptimizerCheckpoint]:
        if not (self.resume and self.checkpoint_path
                and os.path.exists(self.checkpoint_path)):
            return None
        state = load_checkpoint(self.checkpoint_path, self.template)
        if state.seed != self.config.seed:
            raise ReproError(
                f"checkpoint {self.checkpoint_path!r} was written with "
                f"seed {state.seed}, but this run uses seed "
                f"{self.config.seed}; resuming would not reproduce the "
                f"original trajectory")
        # Fold the checkpointed effort back in, so cumulative Table-7
        # accounting spans the whole logical run across restarts.
        self.evaluator.counts.absorb(state.counters)
        return state

    # -- main loop ----------------------------------------------------------------
    def run(self) -> OptimizationResult:
        start_time = time.time()
        wall_offset = 0.0

        # One persistent worker pool for the whole run (jobs >= 2): the
        # worst-case searches, the gradient probes and the verification
        # Monte-Carlo all share it, so process spawn and template
        # pickling are paid once.  Serial when jobs == 1 (or the
        # evaluation stack is not worker-replicable); results are
        # bit-identical either way.
        from ..yieldsim import PoolHandle
        pool = PoolHandle.for_evaluator(self._guarded, self.config.jobs)
        self.verifier.pool = pool
        try:
            return self._run_loop(pool, start_time, wall_offset)
        finally:
            self.verifier.pool = None
            if pool is not None:
                pool.close()

    def _run_loop(self, pool, start_time: float,
                  wall_offset: float) -> OptimizationResult:
        config = self.config
        evaluator = self.evaluator  # raw counters (Table-7 accounting)
        guarded = self._guarded     # policy-routed evaluation
        template = self.template

        state = self._load_checkpoint()
        samples = SampleSet.draw(config.n_samples_linear,
                                 template.statistical_space.dim,
                                 seed=config.seed)
        if state is not None:
            expected = {"n": samples.n, "dim": samples.dim,
                        "seed": config.seed}
            if state.sample_state and state.sample_state != expected:
                raise ReproError(
                    f"checkpoint {self.checkpoint_path!r} sampling state "
                    f"{state.sample_state} does not match this run's "
                    f"{expected}; resuming would not reproduce the "
                    f"original trajectory")
            records = list(state.records)
            d_f = dict(state.d_f)
            previous_wc = state.previous_wc
            start_iteration = state.iteration + 1
            wall_offset = state.wall_time_s
            if state.stop_reason == STOP_CONVERGED:
                # The checkpointed run already converged; nothing left.
                start_iteration = config.max_iterations + 1
        else:
            d0 = template.initial_design()
            if config.use_constraints:
                d_f, _ = find_feasible_point(guarded, d0)
            else:
                d_f = dict(d0)
            records = []
            previous_wc = None
            start_iteration = 1

        converged = False
        stop_reason = STOP_MAX_ITERATIONS
        if state is not None and state.stop_reason == STOP_CONVERGED:
            converged = True
            stop_reason = STOP_CONVERGED
        try:
            for iteration in range(start_iteration,
                                   config.max_iterations + 1):
                # Budget gate at the iteration boundary; skipped until a
                # record exists so even a zero deadline yields a valid
                # (initial-state) trace.
                if records:
                    reason = self._budget_stop(start_time, wall_offset)
                    if reason is not None:
                        stop_reason = reason
                        break

                theta_wc = self._theta_wc(d_f)
                wc = find_all_worst_case_points(
                    guarded, d_f, theta_wc, previous=previous_wc,
                    multistart=config.multistart, seed=config.seed,
                    pool=pool)
                models = build_spec_models(
                    guarded, d_f, wc, theta_wc,
                    linearize_at=config.linearize_at, pool=pool)
                estimator = LinearizedYieldEstimator(models, samples)

                if iteration == 1:
                    records.append(IterationRecord(
                        index=0, d=dict(d_f),
                        margins=self._margins(d_f, theta_wc),
                        bad_samples=estimator.bad_samples_per_spec(d_f),
                        yield_linear=estimator.yield_estimate(d_f),
                        yield_mc=None, mc=None, worst_case=dict(wc),
                        simulations=evaluator.simulation_count,
                        constraint_simulations=evaluator.constraint_count))
                    mc0, n0, shrunk0 = self._verify(d_f, theta_wc,
                                                    worst_case=wc)
                    records[0].mc = mc0
                    records[0].yield_mc = mc0.estimate if mc0 else None
                    records[0].failed_samples = \
                        mc0.failed_samples if mc0 else 0
                    records[0].verify_samples = n0
                    records[0].verify_shrunk = shrunk0
                    records[0].simulations = evaluator.simulation_count
                    records[0].constraint_simulations = \
                        evaluator.constraint_count

                baseline = estimator.yield_estimate(d_f)
                if config.use_constraints:
                    region = linearize_constraints(guarded, d_f)
                else:
                    region = UnconstrainedRegion()
                search = coordinate_search(estimator, region, template,
                                           d_f,
                                           trust_radius=config.trust_radius)

                if config.use_constraints:
                    line = feasibility_line_search(guarded, d_f,
                                                   search.d_star)
                    d_new, gamma = line.d_new, line.gamma
                else:
                    d_new, gamma = dict(search.d_star), 1.0

                # Damped acceptance (OptimizerConfig.max_step_halvings):
                # the spec-wise linear models cannot see a sign flip of a
                # *systematic* margin caused by their own extrapolation
                # error; halving the step restores the trust-region
                # contract.
                theta_wc_new = self._theta_wc(d_new)
                if config.use_constraints and config.max_step_halvings > 0:
                    margins_old = self._margins(d_f, theta_wc)
                    for _ in range(config.max_step_halvings):
                        margins_new = self._margins(d_new, theta_wc_new)
                        regressed = any(
                            margins_old[key] > 0.0 > margins_new[key]
                            for key in margins_old)
                        if not regressed:
                            break
                        gamma *= 0.5
                        d_new = {name: d_f[name] +
                                 gamma * (search.d_star[name] - d_f[name])
                                 for name in template.design_names}
                        theta_wc_new = self._theta_wc(d_new)
                mc, n_verify, shrunk = self._verify(d_new, theta_wc_new,
                                                    worst_case=wc)
                record = IterationRecord(
                    index=iteration, d=dict(d_new),
                    margins=self._margins(d_new, theta_wc_new),
                    bad_samples=estimator.bad_samples_per_spec(d_new),
                    yield_linear=estimator.yield_estimate(d_new),
                    yield_mc=mc.estimate if mc else None,
                    mc=mc, worst_case=dict(wc),
                    simulations=evaluator.simulation_count,
                    constraint_simulations=evaluator.constraint_count,
                    gamma=gamma,
                    failed_samples=mc.failed_samples if mc else 0,
                    verify_samples=n_verify, verify_shrunk=shrunk)
                records.append(record)

                improvement = record.yield_linear - baseline
                d_f = dict(d_new)
                previous_wc = wc
                if improvement < config.min_improvement:
                    converged = True
                    stop_reason = STOP_CONVERGED
                self._write_checkpoint(
                    iteration, records, d_f, previous_wc, samples,
                    start_time, wall_offset,
                    stop_reason=STOP_CONVERGED if converged else None)
                if converged:
                    break
        except ReproError as exc:
            if not records:
                # Nothing recoverable happened yet; fail loudly.
                raise
            stop_reason = f"{STOP_ABORTED_PREFIX}{type(exc).__name__}: " \
                          f"{exc}"

        health = SimulatorHealth.from_reports(
            record.mc.report for record in records if record.mc is not None)
        return OptimizationResult(
            template_name=template.name,
            records=records,
            d_final=dict(d_f),
            converged=converged,
            wall_time_s=wall_offset + (time.time() - start_time),
            total_simulations=evaluator.simulation_count,
            total_constraint_simulations=evaluator.constraint_count,
            total_cache_hits=evaluator.cache_hits,
            total_requests=evaluator.request_count,
            stop_reason=stop_reason,
            total_failed_samples=guarded.failed_evaluations,
            total_retried_evaluations=guarded.retried_evaluations,
            health=health,
            pool_jobs=pool.jobs if pool is not None else 1,
            pool_tasks=pool.tasks_dispatched if pool is not None else 0,
            pool_died=pool is not None and not pool.alive,
            warm_cache=template.warm_cache_stats()
            if hasattr(template, "warm_cache_stats") else None,
            dc_effort=template.dc_effort_stats()
            if hasattr(template, "dc_effort_stats") else None)
