"""Per-run telemetry for yield-estimation runs.

Every estimator produces a :class:`RunReport` alongside its numeric
result: how many simulations were spent, how many evaluator requests were
answered from cache, how the batch executor split the work, and the wall
time of each phase (sample drawing, simulation, statistical reduction).
The report is a plain JSON-serializable record, so it can be logged,
diffed across runs, or attached to Table-7 style effort accounting.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Dict


#: the :class:`RunReport` counts :meth:`RunReport.add` sums
_COUNTS = ("n_samples", "simulations", "requests", "cache_hits",
           "cache_misses", "chunks", "retried_chunks", "timed_out_chunks",
           "failed_samples", "retried_evaluations")


@dataclass
class RunReport:
    """Telemetry of one yield-estimation run (JSON-serializable)."""

    estimator: str = ""
    n_samples: int = 0
    #: distinct worst-case operating corners simulated per sample
    theta_groups: int = 0
    #: simulator calls actually spent by this run
    simulations: int = 0
    #: evaluator requests issued (simulations + cache hits)
    requests: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: executor backend ("serial" or "process-pool")
    backend: str = "serial"
    jobs: int = 1
    chunks: int = 0
    retried_chunks: int = 0
    timed_out_chunks: int = 0
    #: samples whose evaluation failed under the fault policy and were
    #: counted as violating every spec (NaN performance records)
    failed_samples: int = 0
    #: retry-with-jitter attempts the fault policy issued during this run
    retried_evaluations: int = 0
    #: True when a dead/wedged process pool forced the remainder of the
    #: batch onto the serial in-parent path
    degraded_to_serial: bool = False
    #: True when an *alive* shared pool could not serve the run's
    #: evaluation stack (template mismatch / non-replicable wrapper) and
    #: the batch silently ran serially instead
    pool_incompatible: bool = False
    #: warm-start cache counter *deltas* accrued during this run
    #: (hits/misses/chain_seeds/chain_solves/evictions), when the
    #: template exposes a warm cache; empty otherwise.  Additive across
    #: shards.  On the process-pool backend they are totals over the
    #: workers, each with a private anchor cache, so they depend on
    #: which worker ran which task.
    warm_cache: Dict[str, int] = field(default_factory=dict)
    #: per-strategy DC solve counter *deltas* accrued during this run
    #: (newton-warm/newton/gmin-stepping/source-stepping/failed), when
    #: the template exposes DC effort counters; empty otherwise.
    #: Additive across shards; worker totals like ``warm_cache``.
    dc_effort: Dict[str, int] = field(default_factory=dict)
    #: wall time per phase, seconds
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_time_s(self) -> float:
        return float(sum(self.phase_seconds.values()))

    def add(self, other: "RunReport") -> None:
        """Add ``other``'s counts and phase times to this report and OR
        its flags in: the one fold of report counts, for an estimate's
        evaluation and for a shard merge alike."""
        for name in _COUNTS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.degraded_to_serial |= other.degraded_to_serial
        self.pool_incompatible |= other.pool_incompatible
        for mine, theirs in ((self.warm_cache, other.warm_cache),
                             (self.dc_effort, other.dc_effort),
                             (self.phase_seconds, other.phase_seconds)):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value

    def to_dict(self) -> Dict:
        """Every field, in declaration order, and ``wall_time_s``."""
        return {**asdict(self), "wall_time_s": self.wall_time_s}

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: Dict) -> "RunReport":
        """Inverse of :meth:`to_dict`: every field is required
        (``wall_time_s`` is derived and ignored); used by checkpoint
        restore and the artifact readers."""
        return cls(
            estimator=data["estimator"],
            n_samples=int(data["n_samples"]),
            theta_groups=int(data["theta_groups"]),
            simulations=int(data["simulations"]),
            requests=int(data["requests"]),
            cache_hits=int(data["cache_hits"]),
            cache_misses=int(data["cache_misses"]),
            backend=data["backend"],
            jobs=int(data["jobs"]),
            chunks=int(data["chunks"]),
            retried_chunks=int(data["retried_chunks"]),
            timed_out_chunks=int(data["timed_out_chunks"]),
            failed_samples=int(data["failed_samples"]),
            retried_evaluations=int(data["retried_evaluations"]),
            degraded_to_serial=bool(data["degraded_to_serial"]),
            pool_incompatible=bool(data["pool_incompatible"]),
            warm_cache={k: int(v) for k, v in data["warm_cache"].items()},
            dc_effort={k: int(v) for k, v in data["dc_effort"].items()},
            phase_seconds=dict(data["phase_seconds"]))


@dataclass
class SimulatorHealth:
    """Run-level aggregation of the failure telemetry of many
    :class:`RunReport` instances (one per verification call of an
    optimization run): how often the simulator misbehaved and how the
    runtime absorbed it.  Attached to Table-7 style effort summaries so
    a run's health is visible next to its cost."""

    runs: int = 0
    failed_samples: int = 0
    retried_evaluations: int = 0
    retried_chunks: int = 0
    timed_out_chunks: int = 0
    degraded_runs: int = 0
    incompatible_runs: int = 0

    @classmethod
    def from_reports(cls, reports) -> "SimulatorHealth":
        health = cls()
        for report in reports:
            if report is None:
                continue
            health.runs += 1
            health.failed_samples += report.failed_samples
            health.retried_evaluations += report.retried_evaluations
            health.retried_chunks += report.retried_chunks
            health.timed_out_chunks += report.timed_out_chunks
            health.degraded_runs += int(report.degraded_to_serial)
            health.incompatible_runs += int(report.pool_incompatible)
        return health

    @property
    def no_data(self) -> bool:
        """True when no telemetry was ever collected (every report was
        ``None``) — a run with nothing to aggregate is *unknown*, not
        healthy."""
        return self.runs == 0

    @property
    def clean(self) -> bool:
        """True when telemetry was collected and no failure-handling
        machinery ever fired.  A run with no telemetry at all
        (:attr:`no_data`) is not clean — it is unobserved."""
        return not self.no_data and not (
            self.failed_samples or self.retried_evaluations
            or self.retried_chunks or self.timed_out_chunks
            or self.degraded_runs or self.incompatible_runs)

    def to_dict(self) -> Dict:
        return asdict(self)


class PhaseTimer:
    """Context manager accumulating wall time into ``report.phase_seconds``.

    Re-entering the same phase accumulates (:class:`~repro.yieldsim.
    importance.MeanShiftIS` re-opens the "reduce" phase)."""

    def __init__(self, report: RunReport, phase: str):
        self.report = report
        self.phase = phase
        self._start = 0.0

    def __enter__(self) -> "PhaseTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._start
        seconds = self.report.phase_seconds
        seconds[self.phase] = seconds.get(self.phase, 0.0) + elapsed
