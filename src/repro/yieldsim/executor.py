"""Batched parallel execution engine for sample-matrix evaluation.

Every yield estimator reduces to the same inner loop: evaluate each
statistical sample at each distinct worst-case operating corner, for the
performances of the specs checked there.  This module runs that loop
either serially (sharing the caller's cached
:class:`~repro.evaluation.evaluator.Evaluator`) or on a
:class:`PoolHandle`, the one process pool of the package:

* an optimizer run creates one handle and shares it across the per-spec
  Eq.-8 worst-case searches, the finite-difference gradient probes and
  the verification Monte-Carlo, so worker spawn and template pickling
  are paid once; a standalone :class:`BatchExecutor` run with
  ``jobs >= 2`` opens one for the call;
* each worker owns one cached evaluator around the template and runs a
  task with the same function as the serial path: a Monte-Carlo chunk,
  and a chunk of gradient probes that share ``(d, theta)``, go through
  :func:`_evaluate_rows` and so the sample-batched engine either way,
  so values are bit-identical to serial evaluation;
* :meth:`PoolHandle.run_tasks` is the one dispatch loop.  It waits on
  the tasks in dispatch order, each for the handle's ``task_timeout_s``,
  and re-runs a task that raised serially in the parent.  A timeout or
  a ``BrokenProcessPool`` marks the pool dead: its workers are
  terminated (a hung process must not outlive the run), tasks that
  finished before the collapse are harvested and the rest run serially
  in the parent;
* workers ship back the **cache writes** each task made plus the
  difference of their stack's counts over the task
  (:mod:`repro.counters`); the parent folds them in dispatch order via
  :func:`fold_task`, which reproduces a serial run's cache and every
  Table-7 counter.  The warm-start and DC-effort counts are totals over
  the workers instead: each worker owns a private anchor cache, so they
  depend on which worker ran which task;
* an evaluation stack the workers cannot replicate (e.g. a
  fault-injecting wrapper, whose call-order state lives in the parent)
  runs serially.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import sys
from concurrent import futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (Callable, Collection, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from .. import counters
from ..counters import Snapshot
from ..errors import ReproError
from ..evaluation.evaluator import Evaluator

_LOG = logging.getLogger(__name__)

#: Chunks submitted per worker (when no explicit chunk size is given):
#: small enough to balance uneven chunk runtimes, large enough to
#: amortize task submission overhead.
_CHUNKS_PER_WORKER = 4

#: Per-theta performance requests (``None``: every performance at every
#: theta; an element ``None``: every performance at that theta).
Requests = Optional[Sequence[Optional[Collection[str]]]]


@dataclass(frozen=True)
class ExecutionConfig:
    """How a batch of sample evaluations is executed."""

    #: worker processes; 1 = serial in the calling process
    jobs: int = 1
    #: samples per pool task (None = automatic)
    chunk_size: Optional[int] = None
    #: per-task wait budget in seconds of the pool a standalone run
    #: opens (None = wait forever); an attached pool keeps its own
    timeout_s: Optional[float] = None

    def __post_init__(self):
        if self.jobs < 1:
            raise ReproError(f"jobs must be >= 1, got {self.jobs}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ReproError(
                f"chunk_size must be >= 1, got {self.chunk_size}")


@dataclass
class BatchOutcome:
    """Evaluation of a full sample matrix.

    ``values[j][g]`` is the performance dict of sample ``j`` at operating
    point (theta group) ``g``, holding the performances requested there —
    ordering matches the input matrix exactly, regardless of backend.
    The effort (simulations, cache hits) is read off the evaluator,
    whose counters include the folded worker effort.
    """

    values: List[List[Dict[str, float]]]
    backend: str = "serial"
    jobs: int = 1
    chunks: int = 0
    retried_chunks: int = 0
    timed_out_chunks: int = 0
    #: True when the pool died (timeout-killed or broken workers) and the
    #: remaining chunks ran serially in the parent
    degraded_to_serial: bool = False
    #: True when a pool was wanted (attached and alive, or ``jobs >= 2``)
    #: but could not serve this evaluation stack (template mismatch /
    #: non-replicable wrapper), so the batch ran serially
    pool_incompatible: bool = False


def _pool_context():
    """Prefer fork on POSIX: workers inherit loaded modules, so templates
    defined outside installed packages (tests, notebooks) stay usable."""
    if sys.platform != "win32":
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover
            pass
    return multiprocessing.get_context()


def _per_theta(performances: Requests, n_thetas: int) -> list:
    """One request per theta."""
    if performances is None:
        return [None] * n_thetas
    if len(performances) != n_thetas:
        raise ReproError(
            f"{len(performances)} performance requests for {n_thetas} "
            f"operating points")
    return list(performances)


# -- task functions (run in a worker, or serially in the parent) --------------
def _evaluate_rows(evaluator, d: Mapping[str, float],
                   thetas: Sequence[Mapping[str, float]],
                   rows: Sequence[np.ndarray],
                   performances: Requests = None
                   ) -> List[List[Dict[str, float]]]:
    """``values[j][g]`` of every row at every theta, for the theta's
    request in ``performances``: through the sample-batched engine when
    the stack allows it, else the scalar per-row loop.  The serial path
    and every pooled Monte-Carlo chunk run this one function, as do
    gradient probes that share ``(d, theta)``."""
    values = None
    if len(rows) > 1:
        values = batched_columns(evaluator, d, thetas, rows, performances)
    if values is None:
        requests = _per_theta(performances, len(thetas))
        values = [[dict(evaluator.evaluate(d, row, theta, wanted))
                   for theta, wanted in zip(thetas, requests)]
                  for row in rows]
    return values


def _evaluate_probes(evaluator, points: Sequence[Tuple]
                     ) -> List[Dict[str, float]]:
    """Values at the ``(d, s_hat, theta)`` probe ``points``, in order:
    as rows of :func:`_evaluate_rows` when they share ``(d, theta)``,
    else one at a time.  The serial path and every pooled probe chunk
    run this one function."""
    if points:
        d, _, theta = points[0]
        if all(p_d == d and p_theta == theta for p_d, _, p_theta in points):
            rows = [s_hat for _, s_hat, _ in points]
            return [values[0] for values in
                    _evaluate_rows(evaluator, d, [theta], rows)]
    return [dict(evaluator.evaluate(d, s_hat, theta))
            for d, s_hat, theta in points]


# -- worker side ---------------------------------------------------------------
_WORKER: Dict[str, object] = {}


def _init_pool_worker(template) -> None:
    """Pool initializer: one private evaluator per worker, reused across
    tasks (its cache persists, so repeated nominal/gradient points hit)."""
    _WORKER["evaluator"] = Evaluator(template)


def _pool_task(fn: Callable, task: Tuple, policy, fail_mode
               ) -> Tuple[object, Snapshot, list]:
    """Run ``fn(target, *task)`` inside a worker; returns its value, the
    difference of the worker stack's counts over the task
    (:func:`repro.counters.since`) and the cache writes it made.  The
    target is the worker evaluator, wrapped in a fresh fault-tolerant
    facade when the parent runs one."""
    evaluator: Evaluator = _WORKER["evaluator"]  # type: ignore[assignment]
    target = evaluator
    if policy is not None:
        from ..runtime.tolerant import FaultTolerantEvaluator
        target = FaultTolerantEvaluator(evaluator, policy, fail_mode)
    before = counters.snapshot(target.counters())
    with evaluator.recording() as writes:
        value = fn(target, *task)
    return value, counters.since(target.counters(), before), writes


# -- parent side ---------------------------------------------------------------
def unwrap_pool_stack(evaluator):
    """``(inner, policy, fail_mode)`` when ``evaluator`` is an evaluation
    stack that pool workers can replicate exactly — a plain
    :class:`Evaluator`, or a
    :class:`~repro.runtime.tolerant.FaultTolerantEvaluator` around one —
    else ``None`` (e.g. a fault-injecting wrapper, whose call-order state
    lives in the parent; such stacks must stay serial)."""
    from ..runtime.tolerant import FaultTolerantEvaluator
    if type(evaluator) is Evaluator:
        return evaluator, None, None
    if isinstance(evaluator, FaultTolerantEvaluator) \
            and type(evaluator.inner) is Evaluator:
        return evaluator.inner, evaluator.policy, evaluator.fail_mode
    return None


def fold_task(evaluator, spent: Snapshot, writes: list) -> None:
    """Fold one task's effort into the parent evaluation stack.

    ``spent`` and ``writes`` are what :func:`_pool_task` returned.  The
    fold reconstructs what a serial run would have counted: every write
    the parent cache does not cover is one simulation + one miss; every
    write it covers would have been a hit
    (:meth:`~repro.evaluation.evaluator.Evaluator.absorb_cache`).  Every
    other count adds as the worker counted it; the warm-anchor and DC
    counts are therefore totals over the workers, each with a private
    anchor cache.  Tasks must be folded in a deterministic order (the
    dispatch order), never completion order.
    """
    inner = unwrap_pool_stack(evaluator)[0]
    new, duplicate = inner.absorb_cache(writes)
    own = spent["evaluator"]
    own.update(simulations=new, cache_misses=new,
               cache_hits=own["cache_hits"] + duplicate)
    counters.absorb(evaluator.counters(), spent)


@dataclass
class TaskRun:
    """What one :meth:`PoolHandle.run_tasks` call did."""

    #: one result per task, in task order
    results: List[object]
    #: tasks whose wait exceeded the pool's timeout (the first kills it)
    timed_out: int = 0
    #: tasks run serially in the parent (raised, timed out, or lost
    #: with the pool)
    rerun: int = 0
    #: the pool died during the call
    died: bool = False


class PoolHandle:
    """The process pool: persistent across the phases of one run.

    Created from a run's evaluation stack, once per optimizer run (the
    worst-case search, the gradient probes and the verification
    Monte-Carlo all dispatch to the same workers, so process spawn and
    template pickling are paid once) or once per standalone batch.  Each
    worker owns one cached :class:`Evaluator` that persists across tasks.

    A timeout or broken pool marks the handle **dead** (workers are
    terminated); every dispatcher checks :attr:`alive` and falls back to
    its serial path, which by construction produces the same results.
    """

    def __init__(self, template, jobs: int,
                 task_timeout_s: Optional[float] = None):
        if jobs < 2:
            raise ReproError(f"a pool needs jobs >= 2, got {jobs}")
        self.template = template
        self.jobs = jobs
        #: per-task wait budget in seconds (None = wait forever)
        self.task_timeout_s = task_timeout_s
        self.tasks_dispatched = 0
        self._dead = False
        self._pool = futures.ProcessPoolExecutor(
            max_workers=jobs, mp_context=_pool_context(),
            initializer=_init_pool_worker,
            initargs=(template,))

    @classmethod
    def for_evaluator(cls, evaluator, jobs: int,
                      task_timeout_s: Optional[float] = None
                      ) -> Optional["PoolHandle"]:
        """A handle for ``evaluator``'s stack, or None when the stack
        cannot be replicated in workers (or ``jobs`` < 2)."""
        if jobs < 2:
            return None
        maybe = unwrap_pool_stack(evaluator)
        if maybe is None:
            return None
        return cls(maybe[0].template, jobs, task_timeout_s=task_timeout_s)

    @property
    def alive(self) -> bool:
        return not self._dead

    def compatible(self, evaluator) -> bool:
        """True when ``evaluator`` evaluates against this pool's template
        with a worker-replicable stack."""
        maybe = unwrap_pool_stack(evaluator)
        return maybe is not None and maybe[0].template is self.template

    def run_tasks(self, fn: Callable, tasks: Sequence[Tuple], evaluator,
                  serial: Optional[Callable] = None) -> TaskRun:
        """Run ``fn(target, *task)`` for every task on the workers — the
        one dispatch loop of the pool.

        The handle must be alive and :meth:`compatible` with
        ``evaluator``.  Results are awaited in dispatch order and each
        task's effort is folded into ``evaluator`` in that order
        (:func:`fold_task`).  A task that raised, or that was lost with
        the pool, runs ``serial(task)`` in the parent instead (default
        ``fn(evaluator, *task)``), so results and accounting come out
        identical to a serial run either way.  A timeout or a broken
        pool kills the workers; tasks that finished before the death are
        still harvested.
        """
        if serial is None:
            def serial(task):
                return fn(evaluator, *task)
        _, policy, fail_mode = unwrap_pool_stack(evaluator)
        pending = [self._pool.submit(_pool_task, fn, task, policy,
                                     fail_mode) for task in tasks]
        self.tasks_dispatched += len(pending)
        run = TaskRun(results=[])
        cause = None
        for task, future in zip(tasks, pending):
            payload = None
            if self.alive:
                try:
                    payload = future.result(timeout=self.task_timeout_s)
                except futures.TimeoutError:
                    run.timed_out += 1
                    cause = "task timeout"
                    self.kill()
                except BrokenProcessPool:
                    cause = "broken process pool"
                    self.kill()
                except Exception:
                    pass  # the task raised: re-run it in the parent
            elif future.done() and not future.cancelled() \
                    and future.exception() is None:
                payload = future.result()  # finished before the death
            if payload is None:
                run.rerun += 1
                run.results.append(serial(task))
            else:
                value, spent, writes = payload
                fold_task(evaluator, spent, writes)
                run.results.append(value)
        if cause is not None:
            run.died = True
            _LOG.warning("process pool died (%s): %d of %d tasks re-run "
                         "serially in the parent", cause, run.rerun,
                         len(tasks))
        return run

    def kill(self) -> None:
        """Terminate the workers without waiting and mark the handle
        dead (used on timeout/breakage; later dispatches go serial).

        ``Future.cancel`` has no effect on a *running* future, so a hung
        worker would outlive the run if the executor were merely shut
        down; terminate the worker processes explicitly (and escalate to
        SIGKILL if termination does not take).  The process list must be
        snapshotted *before* ``shutdown``, which drops the pool's
        reference to it."""
        if self._dead:
            return
        self._dead = True
        processes = list((getattr(self._pool, "_processes", None) or {})
                         .values())
        self._pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=1.0)

    def close(self) -> None:
        """Orderly shutdown at end of run.  Waits for teardown: an
        executor still dismantling itself at interpreter exit races
        CPython's own atexit hook (unlocked ``thread_wakeup.wakeup()``
        against the management thread closing the same pipe), spraying
        "Exception ignored ... Bad file descriptor" on stderr."""
        if not self._dead:
            self._dead = True
            self._pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "PoolHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def batched_columns(evaluator, d: Mapping[str, float],
                    thetas: Sequence[Mapping[str, float]],
                    matrix: Sequence[np.ndarray],
                    performances: Requests = None
                    ) -> Optional[List[List[Dict[str, float]]]]:
    """In-process evaluation of ``matrix`` rows through the
    sample-batched engine, each theta for its request in
    ``performances``.

    Evaluates column-major — all rows at one theta per
    :meth:`~repro.evaluation.evaluator.Evaluator.evaluate_batch` call,
    so one vectorized simulation covers a whole chunk — then transposes
    back to the row-major layout ``values[j][g]``.  Values, cache
    contents and counter totals are identical to the scalar per-row
    loop (the batched engine guarantees bitwise parity; column order
    only permutes *when* each theta's work happens).

    Fault handling replicates the serial stack: a row whose first
    attempt raised is resumed through the stack's
    :meth:`~repro.runtime.tolerant.FaultTolerantEvaluator.
    resume_after_failure` (same classification, same deterministic
    jitter, same counters).  Without a policy the serial loop would
    propagate the first failure in row-major order, so the earliest
    (row, theta) failure is re-raised.

    Returns None when the evaluation stack is not batchable (a
    non-replicable wrapper); the caller then runs the scalar loop.
    """
    maybe = unwrap_pool_stack(evaluator)
    if maybe is None:
        return None
    inner, policy, _ = maybe
    rows = [np.asarray(row, dtype=float) for row in matrix]
    columns: List[List] = []
    for theta, wanted in zip(thetas, _per_theta(performances, len(thetas))):
        entries = inner.evaluate_batch(d, rows, theta, wanted)
        column: List = []
        for row, entry in zip(rows, entries):
            if isinstance(entry, BaseException) and policy is not None:
                entry = evaluator.resume_after_failure(d, row, theta, entry,
                                                       wanted)
            column.append(entry)
        columns.append(column)
    for j in range(len(rows)):  # earliest failure in row-major order
        for column in columns:
            if isinstance(column[j], BaseException):
                raise column[j]
    return [[dict(column[j]) for column in columns]
            for j in range(len(rows))]


def evaluate_probes(evaluator,
                    points: Sequence[Tuple[Mapping[str, float], np.ndarray,
                                           Mapping[str, float]]],
                    pool: Optional[PoolHandle] = None
                    ) -> List[Dict[str, float]]:
    """Values at the finite-difference probe ``points``, in input order:
    the one probe dispatch behind the Eq.-8/Eq.-16 gradients and the
    SLSQP constraint Jacobian of the worst-case search.

    On a usable ``pool`` the probes run as one chunk per worker, else
    as one chunk in the parent; either way each chunk is one
    :func:`_evaluate_probes` call, so probes that share ``(d, theta)``
    go through the sample-batched engine.  Every path gives
    bit-identical values, cache entries and counters."""
    if pool is None or not pool.alive or not pool.compatible(evaluator) \
            or len(points) < 2:
        return _evaluate_probes(evaluator, points)
    plain = [(dict(d), np.asarray(s_hat, dtype=float), dict(theta))
             for d, s_hat, theta in points]
    size = math.ceil(len(plain) / pool.jobs)
    tasks = [(plain[start:start + size],)
             for start in range(0, len(plain), size)]
    run = pool.run_tasks(_evaluate_probes, tasks, evaluator)
    return [values for chunk in run.results for values in chunk]


# -- driver ------------------------------------------------------------------
class BatchExecutor:
    """Drives an :class:`Evaluator` over a sample matrix in chunks.

    Chunks run on a :class:`PoolHandle`: the attached one (an optimizer
    run's shared pool) or, with ``config.jobs >= 2`` and none attached,
    one opened for this call.  A single-row matrix, a dead pool and a
    stack the pool cannot serve run the serial path instead, which
    gives the same values and counts.
    """

    def __init__(self, config: Optional[ExecutionConfig] = None,
                 pool: Optional[PoolHandle] = None):
        self.config = config or ExecutionConfig()
        self.pool = pool

    def run(self, evaluator: Evaluator, d: Mapping[str, float],
            thetas: Sequence[Mapping[str, float]],
            matrix: np.ndarray,
            performances: Requests = None) -> BatchOutcome:
        """Evaluate every row of ``matrix`` at every theta in ``thetas``,
        for the performances ``performances[g]`` requests at theta ``g``
        (``None``: every performance everywhere)."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ReproError("sample matrix must be 2-D (n, dim)")
        if not thetas:
            raise ReproError("at least one operating point is required")
        if performances is not None:
            performances = _per_theta(performances, len(thetas))
        n = matrix.shape[0]
        if self.pool is not None:
            compatible = self.pool.compatible(evaluator)
            if self.pool.alive and compatible and n > 1:
                return self._run_pooled(self.pool, evaluator, d, thetas,
                                        matrix, performances)
            outcome = self._run_serial(evaluator, d, thetas, matrix,
                                       performances)
            # Telemetry must name the *reason* the pool went unused: an
            # incompatible stack is flagged even while the pool is
            # healthy, whereas a dead pool only counts as degradation
            # when serial was not the natural path anyway (n == 1 runs
            # serially by design, dead pool or not).
            if not compatible:
                outcome.pool_incompatible = True
            elif not self.pool.alive and n > 1:
                outcome.degraded_to_serial = True
            return outcome
        if self.config.jobs == 1 or n == 1:
            return self._run_serial(evaluator, d, thetas, matrix,
                                    performances)
        pool = PoolHandle.for_evaluator(evaluator, self.config.jobs,
                                        task_timeout_s=self.config.timeout_s)
        if pool is None:
            outcome = self._run_serial(evaluator, d, thetas, matrix,
                                       performances)
            outcome.pool_incompatible = True
            return outcome
        with pool:
            return self._run_pooled(pool, evaluator, d, thetas, matrix,
                                    performances)

    def _run_serial(self, evaluator: Evaluator, d: Mapping[str, float],
                    thetas: Sequence[Mapping[str, float]],
                    matrix: np.ndarray,
                    performances: Requests) -> BatchOutcome:
        return BatchOutcome(
            values=_evaluate_rows(evaluator, d, thetas, matrix,
                                  performances),
            backend="serial", jobs=1, chunks=1)

    def _run_pooled(self, pool: PoolHandle, evaluator,
                    d: Mapping[str, float],
                    thetas: Sequence[Mapping[str, float]],
                    matrix: np.ndarray,
                    performances: Requests) -> BatchOutcome:
        n = matrix.shape[0]
        size = self.config.chunk_size \
            or max(1, math.ceil(n / (pool.jobs * _CHUNKS_PER_WORKER)))
        d_plain = dict(d)
        thetas_plain = [dict(theta) for theta in thetas]
        tasks = [(d_plain, thetas_plain, matrix[start:start + size],
                  performances) for start in range(0, n, size)]

        def rerun(task):
            try:
                return _evaluate_rows(evaluator, *task)
            except Exception as exc:
                raise ReproError(
                    f"batch chunk failed in the pool and again on its "
                    f"in-parent re-run: {exc}") from exc

        run = pool.run_tasks(_evaluate_rows, tasks, evaluator, rerun)
        return BatchOutcome(
            values=[per_theta for chunk in run.results
                    for per_theta in chunk],
            backend="process-pool", jobs=pool.jobs, chunks=len(tasks),
            retried_chunks=run.rerun, timed_out_chunks=run.timed_out,
            degraded_to_serial=run.died)
