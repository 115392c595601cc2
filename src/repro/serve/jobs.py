"""Job specifications and the request-execution path of ``repro.serve``.

The central objects are :class:`YieldRequest` — one fully parameterized
yield estimation — and :class:`OptimizeRequest` — one full Fig. 6
feasibility-guided yield optimization.  ``repro yield`` / ``repro
optimize`` on the command line and a worker process of the job server
both execute a request through :func:`execute_yield` /
:func:`execute_optimize`, so an API-submitted job produces *exactly*
the result the equivalent local command would — bit for bit for the
trajectory (see :func:`trace_fingerprint` for what "bit for bit" means
across process restarts: wall-clock timings and evaluator-cache effort
counters are process-local and excluded).

Requests also define the service's **cache identity**:
:func:`canonical_request` reduces a request to the fields that determine
its result (template + spec set, seed, estimator configuration, code
schema version) and :func:`cache_key` hashes the canonical form, so the
content-addressed result store serves identical requests without
simulation.  Sharding is an execution detail for QMC (skip-ahead shards
reproduce the unsharded point set exactly) but changes the sample
streams of MC/IS (independent ``SeedSequence.spawn`` sub-streams), so
the shard count enters the key only for stream-splitting estimators.

Worker processes run :func:`execute_yield_job` /
:func:`execute_optimize_job` on a payload that wraps the request with a
``heartbeat`` path: a daemon thread touches that file once a second so
the server-side supervisor can distinguish a slow worker from a dead
one.  Optimize workers additionally own a ``checkpoint`` path inside
the result store; they resume from it when it exists, which is exactly
how a crash-recovered job continues instead of restarting.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..circuits import CIRCUITS
from ..errors import ServeError
from .contract import (KIND_MERGED, KIND_OPTIMIZE, KIND_YIELD,
                       SCHEMA_VERSION, make_provenance, wrap_result)

#: estimators whose shard decomposition reproduces the unsharded sample
#: stream exactly (Sobol skip-ahead); their cache key ignores ``shards``
_STREAM_INVARIANT_ESTIMATORS = ("qmc",)


@dataclass(frozen=True)
class YieldRequest:
    """One fully parameterized yield estimation."""

    circuit: str
    estimator: str = "mc"
    n_samples: int = 300
    seed: int = 2001
    jobs: int = 1
    chunk_timeout: Optional[float] = None
    #: 1-based ``i/N`` shard label (None = the full stream)
    shard: Optional[str] = None
    #: optional fault-policy override: ``{"lenient": bool,
    #: "retry_attempts": int, "jitter": float, "backoff": float}``.
    #: None runs the bare evaluator, exactly like the local CLI.
    policy: Optional[Mapping] = None

    def __post_init__(self):
        if self.circuit not in CIRCUITS:
            raise ServeError(
                f"unknown circuit {self.circuit!r}; choose from "
                f"{', '.join(sorted(CIRCUITS))}")
        from ..yieldsim import ESTIMATORS
        if self.estimator not in ESTIMATORS:
            raise ServeError(
                f"unknown estimator {self.estimator!r}; choose from "
                f"{', '.join(sorted(ESTIMATORS))}")
        if self.n_samples < 1:
            raise ServeError(
                f"n_samples must be >= 1, got {self.n_samples}")
        if self.jobs < 1:
            raise ServeError(f"jobs must be >= 1, got {self.jobs}")

    def to_dict(self) -> Dict:
        return {
            "circuit": self.circuit,
            "estimator": self.estimator,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "jobs": self.jobs,
            "chunk_timeout": self.chunk_timeout,
            "shard": self.shard,
            "policy": None if self.policy is None else dict(self.policy),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "YieldRequest":
        try:
            return cls(
                circuit=data["circuit"],
                estimator=data.get("estimator", "mc"),
                n_samples=int(data.get("n_samples", 300)),
                seed=int(data.get("seed", 2001)),
                jobs=int(data.get("jobs", 1)),
                chunk_timeout=data.get("chunk_timeout"),
                shard=data.get("shard"),
                policy=data.get("policy"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ServeError(f"invalid yield request: {exc}")


def spec_signature(template) -> list:
    """The template's spec set in canonical, hashable form."""
    return [[spec.performance, spec.kind, float(spec.bound)]
            for spec in template.specs]


def canonical_request(request: YieldRequest,
                      shards: int = 1) -> Dict:
    """The result-determining canonical form of a (possibly sharded)
    request.

    Instantiates the template to capture the spec set: two builds that
    register different specs under one circuit name must never share a
    cache entry.  Execution-only knobs (worker counts, timeouts) are
    excluded — they change wall clock, not the result.
    """
    template = CIRCUITS[request.circuit]()
    canonical: Dict = {
        "schema_version": SCHEMA_VERSION,
        "circuit": request.circuit,
        "specs": spec_signature(template),
        "statistical_dim": int(template.statistical_space.dim),
        "seed": request.seed,
        "estimator": request.estimator,
        "n_samples": request.n_samples,
    }
    if request.policy is not None:
        # A fault policy changes results whenever a sample faults (the
        # faults themselves are deterministic in the point), so it is
        # part of the result's identity.
        canonical["policy"] = {key: request.policy[key]
                               for key in sorted(request.policy)}
    if shards > 1 and request.estimator not in \
            _STREAM_INVARIANT_ESTIMATORS:
        # MC/IS shards draw independent sub-streams: the pooled result
        # depends on the partition, so the partition is part of the key.
        canonical["shards"] = int(shards)
    return canonical


def cache_key(request: YieldRequest, shards: int = 1) -> str:
    """Content hash of the canonical request (the result-store key)."""
    text = json.dumps(canonical_request(request, shards=shards),
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- execution ----------------------------------------------------------------
def execute_yield(request: YieldRequest):
    """Run one yield estimation; the single execution path shared by
    ``repro yield`` and the job-server workers.

    Returns the :class:`~repro.yieldsim.YieldResult`.
    """
    from ..evaluation import Evaluator
    from ..spec.operating import find_worst_case_operating_points
    from ..yieldsim import ShardPlan, make_estimator

    template = CIRCUITS[request.circuit]()
    evaluator = Evaluator(template)
    target = evaluator
    guarded = None
    if request.policy is not None:
        # Per-job fault policy: route every evaluation through the
        # runtime's retry/count-as-fail machinery.  Left off by default
        # so an unadorned request behaves exactly like the local CLI.
        from ..runtime import (FaultPolicy, FaultTolerantEvaluator,
                               RetryConfig)
        policy = dict(request.policy)
        retry = RetryConfig(
            attempts=int(policy.get("retry_attempts", 2)),
            jitter=float(policy.get("jitter", 1e-6)),
            backoff=float(policy.get("backoff", 8.0)))
        guarded = FaultTolerantEvaluator(evaluator,
                                         FaultPolicy(retry=retry))
        target = guarded
    d = template.initial_design()
    s0 = template.statistical_space.nominal()
    theta_wc = find_worst_case_operating_points(
        lambda theta: target.evaluate(d, s0, theta),
        template.specs, template.operating_range)
    shard = ShardPlan.parse(request.shard) if request.shard else None
    worst_case = None
    if request.estimator == "is":
        # Mean-shift IS centers its proposal on the Eq. 8 worst-case
        # points; the search is seed-deterministic, so every shard of a
        # fleet reconstructs the same mixture components.
        from ..core import find_all_worst_case_points
        worst_case = find_all_worst_case_points(
            target, d, theta_wc, seed=request.seed)
    estimator = make_estimator(request.estimator, jobs=request.jobs,
                               timeout_s=request.chunk_timeout)
    if guarded is not None and dict(request.policy).get("lenient", True):
        with guarded.lenient():
            return estimator.estimate(guarded, d, theta_wc,
                                      n_samples=request.n_samples,
                                      seed=request.seed,
                                      worst_case=worst_case, shard=shard)
    return estimator.estimate(target, d, theta_wc,
                              n_samples=request.n_samples,
                              seed=request.seed,
                              worst_case=worst_case, shard=shard)


def yield_artifact(request: YieldRequest, result,
                   command: str = "yield") -> Dict:
    """Wrap an executed request's result in a provenance-carrying
    artifact (the wire/store format)."""
    shard_label = None
    if result.shard_index is not None and result.shard_total:
        shard_label = f"{result.shard_index + 1}/{result.shard_total}"
    provenance = make_provenance(
        template=request.circuit, seed=request.seed,
        estimator=request.estimator, n_samples=request.n_samples,
        command=command, shard=shard_label)
    return wrap_result(result, provenance, kind=KIND_YIELD)


@contextlib.contextmanager
def worker_heartbeat(path: Optional[str], interval_s: float = 1.0):
    """Touch ``path`` every ``interval_s`` while the body runs (a daemon
    thread, so a wedged body stops the beat — which is the point: the
    supervisor reads staleness as "worker dead or stuck")."""
    if not path:
        yield
        return
    stop = threading.Event()

    def beat() -> None:
        while True:
            try:
                with open(path, "w") as handle:
                    handle.write(f"{time.time():.6f}\n")
            except OSError:  # pragma: no cover - store dir vanished
                pass
            if stop.wait(interval_s):
                return

    thread = threading.Thread(target=beat, daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=interval_s + 1.0)


def execute_yield_job(payload: Mapping) -> Dict:
    """Process-pool entry point: run one (shard of a) yield request and
    return its artifact dict (picklable either way, but JSON keeps the
    worker boundary identical to the wire format)."""
    request = YieldRequest.from_dict(payload["request"])
    with worker_heartbeat(payload["heartbeat"]):
        result = execute_yield(request)
    return yield_artifact(request, result, command="serve")


# -- optimize jobs ------------------------------------------------------------
@dataclass(frozen=True)
class OptimizeRequest:
    """One fully parameterized Fig. 6 yield optimization.

    Carries only the *result-determining* knobs (they all enter the
    cache key); execution details — worker pools, budgets, checkpoint
    locations — are passed to :func:`execute_optimize` separately.
    """

    circuit: str
    iterations: int = 5
    #: N of the Eq. 17 linearized-model estimate
    samples_linear: int = 10000
    #: N of the Y_tilde verification per iteration
    samples_verify: int = 150
    seed: int = 2001
    #: verification estimator ("mc"/"is"/"qmc")
    estimator: str = "mc"
    #: Table 3 / Table 4 ablation switches
    use_constraints: bool = True
    linearize_at: str = "worst_case"
    #: worker processes of the run's shared pool (execution knob —
    #: results are bit-identical serial or pooled, so it is *not* part
    #: of the cache key)
    jobs: int = 1

    def __post_init__(self):
        if self.circuit not in CIRCUITS:
            raise ServeError(
                f"unknown circuit {self.circuit!r}; choose from "
                f"{', '.join(sorted(CIRCUITS))}")
        if self.iterations < 1:
            raise ServeError(
                f"iterations must be >= 1, got {self.iterations}")
        if self.samples_linear < 1 or self.samples_verify < 0:
            raise ServeError("sample counts must be positive")
        from ..yieldsim import ESTIMATORS
        if self.estimator not in ESTIMATORS:
            raise ServeError(
                f"unknown estimator {self.estimator!r}; choose from "
                f"{', '.join(sorted(ESTIMATORS))}")
        if self.linearize_at not in ("worst_case", "nominal"):
            raise ServeError(
                f"linearize_at must be 'worst_case' or 'nominal', got "
                f"{self.linearize_at!r}")
        if self.jobs < 1:
            raise ServeError(f"jobs must be >= 1, got {self.jobs}")

    def to_dict(self) -> Dict:
        return {
            "circuit": self.circuit,
            "iterations": self.iterations,
            "samples_linear": self.samples_linear,
            "samples_verify": self.samples_verify,
            "seed": self.seed,
            "estimator": self.estimator,
            "use_constraints": self.use_constraints,
            "linearize_at": self.linearize_at,
            "jobs": self.jobs,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "OptimizeRequest":
        try:
            return cls(
                circuit=data["circuit"],
                iterations=int(data.get("iterations", 5)),
                samples_linear=int(data.get("samples_linear", 10000)),
                samples_verify=int(data.get("samples_verify", 150)),
                seed=int(data.get("seed", 2001)),
                estimator=data.get("estimator", "mc"),
                use_constraints=bool(data.get("use_constraints", True)),
                linearize_at=data.get("linearize_at", "worst_case"),
                jobs=int(data.get("jobs", 1)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ServeError(f"invalid optimize request: {exc}")


def canonical_optimize_request(request: OptimizeRequest) -> Dict:
    """The result-determining canonical form of an optimize request
    (same discipline as :func:`canonical_request`: instantiated spec
    set in, execution knobs out)."""
    template = CIRCUITS[request.circuit]()
    return {
        "kind": "optimize",
        "schema_version": SCHEMA_VERSION,
        "circuit": request.circuit,
        "specs": spec_signature(template),
        "statistical_dim": int(template.statistical_space.dim),
        "seed": request.seed,
        "iterations": request.iterations,
        "samples_linear": request.samples_linear,
        "samples_verify": request.samples_verify,
        "estimator": request.estimator,
        "use_constraints": bool(request.use_constraints),
        "linearize_at": request.linearize_at,
    }


def optimize_cache_key(request: OptimizeRequest) -> str:
    """Content hash of the canonical optimize request."""
    text = json.dumps(canonical_optimize_request(request),
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def execute_optimize(request: OptimizeRequest,
                     checkpoint_path: Optional[str] = None,
                     resume: bool = False, budget=None, evaluator=None,
                     verify_shard=None):
    """Run one Fig. 6 optimization; the single execution path shared by
    ``repro optimize`` and the job-server workers.

    ``checkpoint_path``/``resume``/``budget``/``evaluator``/
    ``verify_shard`` are execution details: they control where the run
    checkpoints, whether it continues an interrupted trajectory, and
    how it spends effort — never what the uninterrupted trajectory *is*
    (the runtime's determinism contract).  Returns the
    :class:`~repro.core.optimizer.OptimizationResult`.
    """
    from ..core import OptimizerConfig, YieldOptimizer
    from ..yieldsim import make_estimator

    template = CIRCUITS[request.circuit]()
    config = OptimizerConfig(
        n_samples_linear=request.samples_linear,
        n_samples_verify=request.samples_verify,
        max_iterations=request.iterations,
        seed=request.seed,
        use_constraints=request.use_constraints,
        linearize_at=request.linearize_at,
        jobs=request.jobs,
        verify_shard=verify_shard)
    # The optimizer's pool is the only pool of the run (it serves the
    # verification Monte-Carlo too).
    verifier = make_estimator(request.estimator)
    return YieldOptimizer(
        template, config, evaluator=evaluator, verifier=verifier,
        budget=budget, checkpoint_path=checkpoint_path,
        resume=resume).run()


def optimize_result_dict(result) -> Dict:
    """JSON form of an :class:`~repro.core.optimizer.OptimizationResult`
    (the ``result`` block of a :data:`KIND_OPTIMIZE` artifact)."""
    from ..runtime import record_to_dict
    return {
        "template_name": result.template_name,
        "d_final": {key: float(value)
                    for key, value in result.d_final.items()},
        "converged": bool(result.converged),
        "stop_reason": result.stop_reason,
        "final_yield": result.final_yield(),
        "records": [record_to_dict(record) for record in result.records],
        "wall_time_s": float(result.wall_time_s),
        "total_simulations": int(result.total_simulations),
        "total_constraint_simulations":
            int(result.total_constraint_simulations),
        "total_cache_hits": int(result.total_cache_hits),
        "total_requests": int(result.total_requests),
        "total_failed_samples": int(result.total_failed_samples),
        "total_retried_evaluations":
            int(result.total_retried_evaluations),
        "pool_jobs": int(result.pool_jobs),
        "pool_tasks": int(result.pool_tasks),
        "pool_died": bool(result.pool_died),
        "warm_cache": dict(result.warm_cache or {}),
        "dc_effort": dict(getattr(result, "dc_effort", None) or {}),
    }


def optimize_artifact(request: OptimizeRequest, result,
                      command: str = "optimize") -> Dict:
    """Wrap an optimization trace in a :data:`KIND_OPTIMIZE` artifact."""
    provenance = make_provenance(
        template=request.circuit, seed=request.seed,
        estimator=request.estimator, n_samples=request.samples_verify,
        command=command,
        extra={"iterations": request.iterations,
               "samples_linear": request.samples_linear,
               "stop_reason": result.stop_reason})
    return wrap_result(optimize_result_dict(result), provenance,
                       kind=KIND_OPTIMIZE)


def execute_optimize_job(payload: Mapping) -> Dict:
    """Process-pool entry point: run (or resume) one optimize request
    and return its artifact dict.

    The payload's ``checkpoint`` names the job's store-owned checkpoint
    file; the run always writes it per iteration and resumes from it
    when it already exists — which is exactly the crash-recovery path:
    a re-dispatched job continues the interrupted trajectory and, by
    the runtime's determinism contract, reproduces the uninterrupted
    trace bit-identically.
    """
    request = OptimizeRequest.from_dict(payload["request"])
    checkpoint = payload["checkpoint"]
    with worker_heartbeat(payload["heartbeat"]):
        result = execute_optimize(request, checkpoint_path=checkpoint,
                                  resume=bool(checkpoint))
    return optimize_artifact(request, result, command="serve")


#: keys stripped (recursively) by :func:`trace_fingerprint`: wall-clock
#: phase timings and evaluator/cache *effort* counters.  Both are
#: process-local — an interrupted-and-resumed run re-pays cache warmup
#: it cannot recover — while every trajectory field (designs, margins,
#: worst-case blocks, verification estimates and their sufficient
#: statistics) is deterministic and kept.
VOLATILE_TRACE_KEYS = frozenset({
    "report", "phase_seconds", "wall_time_s", "simulations",
    "constraint_simulations", "requests", "cache_hits", "cache_misses",
    "counters", "warm_cache", "dc_effort", "total_simulations",
    "total_constraint_simulations", "total_cache_hits",
    "total_requests", "total_failed_samples",
    "total_retried_evaluations", "pool_jobs", "pool_tasks", "pool_died",
})


def _strip_volatile(value):
    if isinstance(value, Mapping):
        return {key: _strip_volatile(item)
                for key, item in value.items()
                if key not in VOLATILE_TRACE_KEYS}
    if isinstance(value, (list, tuple)):
        return [_strip_volatile(item) for item in value]
    return value


def trace_fingerprint(result_block: Mapping) -> str:
    """Canonical sha256 of an optimize artifact's ``result`` block with
    volatile (timing/effort) fields removed.

    Two runs of the same request — uninterrupted, or killed and resumed
    from the checkpoint any number of times — must produce the same
    fingerprint; this is the bit-identity the crash-recovery tests and
    the ``service-recovery`` CI gate assert.
    """
    text = json.dumps(_strip_volatile(result_block), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def merge_artifacts(artifacts, request: YieldRequest,
                    shards: int) -> Dict:
    """Pool per-shard artifacts into one merged artifact via the exact
    :func:`~repro.yieldsim.merge_results` algebra."""
    from ..yieldsim import YieldResult, merge_results
    results = [YieldResult.from_dict(artifact["result"])
               for artifact in artifacts]
    merged = merge_results(results)
    provenance = make_provenance(
        template=request.circuit, seed=request.seed,
        estimator=request.estimator, n_samples=request.n_samples,
        command="serve", shards=shards)
    return wrap_result(merged, provenance, kind=KIND_MERGED)


__all__ = [
    "OptimizeRequest", "VOLATILE_TRACE_KEYS", "YieldRequest",
    "cache_key", "canonical_optimize_request", "canonical_request",
    "execute_optimize", "execute_optimize_job", "execute_yield",
    "execute_yield_job", "merge_artifacts", "optimize_artifact",
    "optimize_cache_key", "optimize_result_dict", "spec_signature",
    "trace_fingerprint", "worker_heartbeat", "yield_artifact",
]
