"""DC operating-point solver.

Newton-Raphson on the MNA companion-model formulation with up to four
layers of robustness, applied in order until one converges:

1. warm-started damped Newton from a supplied nearby operating point
   (``x0``): a statistical sample or finite-difference step lands a few
   millivolts from its anchor, so this converges in a handful of
   iterations instead of the ~20 a cold solve needs,
2. plain damped Newton from the zero vector (the classic cold start;
   this is stage 1 when no ``x0`` is given),
3. gmin stepping: solve with a large conductance from every node to ground,
   then relax it geometrically down to ``GMIN_FINAL``,
4. source stepping: ramp all independent sources from 0 to 100 %.

Opamp circuits with the smooth level-1 model almost always converge in
the first applicable stage; the homotopies cover pathological
statistical corners so the Monte-Carlo and worst-case loops never die on
a single sample.  A bad warm start can only cost iterations, never
correctness: the cold chain below it is exactly the chain that runs when
no ``x0`` is supplied.

The solve is written once, over a ``(rows, n)`` state whose rows never
interact: :func:`newton_stage` is the damped-Newton rule with per-row
outcomes and :func:`homotopy_chain` carries each row through the
strategies above on its own.  Both are driven by a kernel factory
``stage(rows, gmin, scale)`` returning ``solve(x, active) -> (x_new,
solved)``.  :func:`solve_dc` runs the chain at one row with the
device-stamp kernel (:func:`device_stage`);
:class:`repro.circuit.batch.SampleBatchPlan` runs it over a chunk of
Monte-Carlo samples with its grouped-signature kernel, and the transient
step (:mod:`repro.circuit.transient`) runs the Newton stage with a
companion-model kernel.  Scalar and batched solves therefore agree by
construction.

:class:`WarmStartCache` is the bounded anchor store the evaluation layer
uses to key warm starts on quantized ``(d, theta)`` cells.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..counters import Counters
from ..errors import ConvergenceError
from .devices import Isource, Vsource, _voltage
from .linsolve import resolve_backend
from .netlist import Circuit, MnaLayout

_LOG = logging.getLogger(__name__)

#: Final shunt conductance left on every node, as in SPICE.
GMIN_FINAL = 1e-12

#: Gmin-stepping homotopy: start conductance and geometric relaxation
#: factor.  The schedule values are *products* of repeated multiplication
#: (see :func:`gmin_schedule`), which is not bitwise the same as the
#: round literals.
GMIN_START = 1e-2
GMIN_FACTOR = 1e-2

#: Source-stepping homotopy ramp: every independent source is scaled by
#: each value in turn.
SOURCE_SCALES = (0.1, 0.3, 0.5, 0.7, 0.85, 0.95, 1.0)

#: Absolute/relative Newton convergence tolerances on the update step.
ABSTOL_V = 1e-9
RELTOL = 1e-6

#: Maximum Newton iterations per (gmin, source-scale) stage.
MAX_ITERATIONS = 120

#: Voltage-step damping limit per Newton iteration [V].
MAX_STEP_V = 0.6

#: Per-row outcomes of :func:`newton_stage`: converged; a non-finite
#: update or the iteration cap (the next strategy takes the row); a
#: singular matrix (the caller's fallback takes the row).
CONVERGED, ESCALATE, SINGULAR = 0, 1, 2


def gmin_schedule() -> Iterator[float]:
    """The gmin-stepping conductance schedule, ending on ``GMIN_FINAL``.

    Yields ``GMIN_START`` relaxed geometrically by ``GMIN_FACTOR`` while
    above ``GMIN_FINAL``, then ``GMIN_FINAL`` itself for the finishing
    solve.
    """
    gmin = GMIN_START
    while gmin >= GMIN_FINAL:
        yield gmin
        gmin *= GMIN_FACTOR
    yield GMIN_FINAL


class DCResult:
    """Solved DC operating point.

    Provides node-voltage lookup, per-device operating-point records and the
    branch currents of voltage sources (for power measurements).
    """

    def __init__(self, circuit: Circuit, layout: MnaLayout, x: np.ndarray,
                 temp_c: float, iterations: int, strategy: str):
        self._circuit = circuit
        self._layout = layout
        self.x = x
        self.temp_c = temp_c
        self.iterations = iterations
        self.strategy = strategy
        self._ops: Optional[Dict[str, dict]] = None

    def voltage(self, node: str) -> float:
        """Voltage of ``node`` relative to ground."""
        index = self._layout.node_index.get(node)
        if index is None:
            from .netlist import is_ground
            if is_ground(node):
                return 0.0
            raise KeyError(f"unknown node {node!r}")
        return _voltage(self.x, index)

    def voltages(self) -> Dict[str, float]:
        """All node voltages as a dict."""
        return {name: _voltage(self.x, i)
                for name, i in self._layout.node_index.items() if i >= 0}

    def operating_points(self) -> Dict[str, dict]:
        """Per-device operating-point records, keyed by device name."""
        if self._ops is None:
            ops: Dict[str, dict] = {}
            for dev, nodes, branches in zip(self._circuit.devices,
                                            self._layout.device_nodes,
                                            self._layout.device_branches):
                record = dev.operating_point(self.x, nodes, branches)
                if record is not None:
                    ops[dev.name] = record
            self._ops = ops
        return self._ops

    def op(self, device_name: str) -> dict:
        """Operating-point record of one device."""
        ops = self.operating_points()
        if device_name not in ops:
            raise KeyError(f"no operating point for device {device_name!r}")
        return ops[device_name]

    def source_current(self, source_name: str) -> float:
        """Branch current through an independent voltage source, flowing
        from its positive terminal through the source to the negative one."""
        for dev, branches in zip(self._circuit.devices,
                                 self._layout.device_branches):
            if dev.name == source_name:
                if not branches:
                    raise KeyError(
                        f"device {source_name!r} has no branch current")
                return float(self.x[branches[0]])
        raise KeyError(f"no device named {source_name!r}")


def newton_stage(stage: Callable, rows: np.ndarray, x0: np.ndarray,
                 n_nodes: int, gmin: float = GMIN_FINAL,
                 scale: Optional[float] = None,
                 max_iterations: Optional[int] = None
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton on the ``(len(rows), n)`` state ``x0`` at one
    ``(gmin, scale)`` point of the homotopy.

    ``stage(rows, gmin, scale)`` builds the stage's kernel
    ``solve(x, active) -> (x_new, solved)``: ``active`` holds the
    positions in ``rows`` still iterating and ``x`` their states; the
    kernel returns their Newton updates and a mask that is False where a
    row's matrix was singular (``None``: every row solved).  Each row is
    damped and tested on its own, so its bits, iteration count and
    outcome never depend on the other rows.

    Returns ``(x, iterations, outcome)`` aligned with ``rows``; a row
    that did not converge keeps its last finite iterate.  The outcome
    is :data:`CONVERGED`, :data:`ESCALATE` (a non-finite update, or
    ``max_iterations`` — default :data:`MAX_ITERATIONS` — spent) or
    :data:`SINGULAR`.
    """
    solve = stage(rows, gmin, scale)
    cap = MAX_ITERATIONS if max_iterations is None else max_iterations
    x = np.array(x0, dtype=float)
    iterations = np.zeros(len(x), dtype=int)
    outcome = np.full(len(x), ESCALATE, dtype=np.int8)
    active = np.arange(len(x))
    xa = x  # states of the active rows
    nv = n_nodes
    for iteration in range(1, cap + 1):
        if not active.size:
            break
        x_new, solved = solve(xa, active)
        if not np.isfinite(x_new).all() \
                or solved is not None and not solved.all():
            ok = np.isfinite(x_new).all(axis=1)
            if solved is not None:
                outcome[active[~solved]] = SINGULAR
                ok &= solved
            x[active[~ok]] = xa[~ok]
            active, xa, x_new = active[ok], xa[ok], x_new[ok]
        delta = x_new - xa
        # Damp only the node-voltage part; branch currents may legitimately
        # jump by large amounts.
        if nv:
            step = np.abs(delta[:, :nv]).max(axis=1)
            converged = step <= ABSTOL_V + RELTOL * np.abs(
                x_new[:, :nv]).max(axis=1)
        else:
            # No node voltages to test: any undamped step is converged
            # (branch-current-only systems are linear in practice).
            step = np.zeros(active.size)
            converged = np.ones(active.size, dtype=bool)
        damped = step > MAX_STEP_V
        if damped.any():
            factor = MAX_STEP_V / np.maximum(step, MAX_STEP_V)
            x_new = np.where(damped[:, None], xa + delta * factor[:, None],
                             x_new)
            converged &= ~damped
        xa = x_new
        if converged.any():
            done = active[converged]
            x[done] = xa[converged]
            outcome[done] = CONVERGED
            iterations[done] = iteration
            active, xa = active[~converged], xa[~converged]
    x[active] = xa
    return x, iterations, outcome


def homotopy_chain(stage: Callable, n_rows: int, size: int, n_nodes: int,
                   x0: Optional[np.ndarray] = None
                   ) -> Tuple[np.ndarray, np.ndarray, List[Optional[str]]]:
    """Carry ``n_rows`` independent rows through the strategy chain.

    Warm Newton from ``x0`` (shape ``(n_rows, size)``; skipped when
    ``None``), Newton from zero, gmin stepping over
    :func:`gmin_schedule` and source stepping over
    :data:`SOURCE_SCALES`; every (sub-)stage is one :func:`newton_stage`
    with the kernel factory ``stage``.  Within a stepping homotopy a
    row's ``x`` and iteration total carry across sub-stages.  A row that
    escalates out of any (sub-)stage restarts the next strategy from
    zero; a row that meets a singular matrix leaves the chain for the
    caller's fallback.  Every escalation is logged at DEBUG level.

    Returns ``(x, iterations, strategy)``: ``strategy[r]`` labels the
    strategy that solved row ``r``, or is ``None`` (singular matrix or
    every strategy exhausted; ``x`` and ``iterations`` stay 0).
    """
    chain = [("newton", None, ((GMIN_FINAL, None),)),
             ("gmin-stepping", None,
              ((gmin, None) for gmin in gmin_schedule())),
             ("source-stepping", None,
              ((GMIN_FINAL, scale) for scale in SOURCE_SCALES))]
    if x0 is not None:
        chain.insert(0, ("newton-warm", x0, ((GMIN_FINAL, None),)))
    x_out = np.zeros((n_rows, size))
    iterations = np.zeros(n_rows, dtype=int)
    strategy: List[Optional[str]] = [None] * n_rows
    pending = np.arange(n_rows)
    for position, (label, start, points) in enumerate(chain):
        if pending.size == 0:
            break
        rows = pending
        x = np.zeros((rows.size, size)) if start is None else start
        total = np.zeros(rows.size, dtype=int)
        escalated = []
        singular = 0
        for gmin, scale in points:
            x, its, outcome = newton_stage(stage, rows, x, n_nodes, gmin,
                                           scale)
            total += its
            keep = outcome == CONVERGED
            if not keep.all():
                escalated.append(rows[outcome == ESCALATE])
                singular += int(np.count_nonzero(outcome == SINGULAR))
                rows, x, total = rows[keep], x[keep], total[keep]
            if rows.size == 0:
                break
        x_out[rows] = x
        iterations[rows] = total
        for row in rows:
            strategy[row] = label
        pending = np.sort(np.concatenate(escalated)) if escalated \
            else rows[:0]
        if singular:
            _LOG.debug("DC homotopy: %d row(s) leave %s on a singular "
                       "matrix", singular, label)
        if pending.size and position + 1 < len(chain):
            _LOG.debug("DC homotopy: %d row(s) escalate from %s to %s",
                       pending.size, label, chain[position + 1][0])
        elif pending.size:
            _LOG.debug("DC homotopy: %d row(s) exhausted the chain at %s",
                       pending.size, label)
    return x_out, iterations, strategy


def device_stage(circuit: Circuit, layout: MnaLayout, backend) -> Callable:
    """The device-stamp kernel factory of :func:`solve_dc` (one row).

    Each stage builds one ``backend.dc_system``
    (:mod:`repro.circuit.linsolve`), which stamps the linear devices and
    the gmin diagonal once; every Newton iteration then re-stamps only
    the nonlinear devices and solves — densely via LAPACK or sparsely
    via a pattern-cached factorization.  A source-stepping ``scale``
    applies to every independent source only while that system is
    stamped (sources are linear), and the caller's scales are restored
    afterwards.  A singular matrix raises :class:`SingularMatrixError`
    straight out.
    """
    def stage(rows, gmin, scale):
        sources = [] if scale is None else [
            dev for dev in circuit.devices
            if isinstance(dev, (Vsource, Isource))]
        saved = [src.scale for src in sources]
        try:
            for src in sources:
                src.scale = scale
            system = backend.dc_system(circuit, layout, gmin)
        finally:
            for src, kept in zip(sources, saved):
                src.scale = kept
        return lambda x, active: (system.solve_at(x[0])[None], None)

    return stage


def solve_dc(circuit: Circuit, temp_c: float = 27.0,
             x0: Optional[np.ndarray] = None,
             backend=None, effort: Optional["DcEffort"] = None) -> DCResult:
    """Find the DC operating point of ``circuit`` at ``temp_c`` Celsius.

    ``x0`` seeds a leading "newton-warm" stage (e.g. with the solution of
    a nearby statistical sample), which dramatically speeds up
    Monte-Carlo loops; the cold strategy chain below it is unchanged, so
    a bad guess costs iterations but never the solution.

    ``backend`` selects the linear-solver backend (``None``/``"auto"``/
    ``"dense"``/``"sparse"`` or a :mod:`repro.circuit.linsolve` instance);
    the default picks by node count and keeps small circuits on the
    dense path bit-identically.

    ``effort`` is an optional :class:`DcEffort` counter bundle: the
    winning strategy label is counted on success, ``"failed"`` when the
    whole chain gives up.

    Raises :class:`ConvergenceError` if all homotopy strategies fail.
    """
    layout = circuit.layout()
    backend = resolve_backend(backend, layout.n_nodes)
    for dev in circuit.devices:
        dev.prepare(temp_c)
    warm = None
    if x0 is not None and len(x0) == layout.size \
            and np.all(np.isfinite(x0)):
        warm = np.asarray(x0, dtype=float)[None, :]
    x, iterations, strategy = homotopy_chain(
        device_stage(circuit, layout, backend), 1, layout.size,
        layout.n_nodes, warm)
    label = strategy[0]
    if effort is not None:
        effort.count(label or "failed")
    if label is None:
        raise ConvergenceError(
            f"all DC strategies failed for circuit {circuit.title!r}: "
            f"every homotopy met a non-finite Newton update or the "
            f"{MAX_ITERATIONS}-iteration cap")
    return DCResult(circuit, layout, x[0], temp_c, int(iterations[0]), label)


class DcEffort(Counters):
    """Per-strategy DC solve counters, additive across pool workers.

    One counter per homotopy strategy label (``newton-warm`` / ``newton``
    / ``gmin-stepping`` / ``source-stepping``) plus ``failed`` for chains
    that exhaust every stage.  :func:`solve_dc` increments the winning
    label when handed an instance, and the batched engine increments the
    same labels for lockstep-solved samples, so the counters stay exact
    regardless of which path ran a sample.
    """

    def __init__(self):
        super().__init__("newton-warm", "newton", "gmin-stepping",
                         "source-stepping", "failed")


class WarmStartCache:
    """Bounded FIFO store of DC anchor solutions, keyed by quantized
    ``(d, theta)`` cells.

    A key maps to the solved ``x`` vector of its cell's *representative*
    point, or to ``None`` when that solve failed (negative caching, so a
    dead cell is not re-attempted on every sample).  Entries are evicted
    oldest-first once ``maxsize`` is reached; anchors are cheap to
    recompute, so no LRU bookkeeping is justified on this hot path.

    A second, smaller store holds *chain* anchors: cold-solved
    representatives of **coarser** quantization cells, used to seed a new
    fine cell's representative solve instead of cold-starting it (the
    ROADMAP "anchor-of-anchor" chain).  Chain anchors are keyed by a
    deterministic function of the fine key alone — never by solve
    history — so every anchor remains a pure function of its key and
    pooled/serial evaluation stay bit-identical.  ``counts`` feed the
    run telemetry (:meth:`stats`).
    """

    _MISSING = object()

    def __init__(self, maxsize: int = 256, chain_maxsize: int = 64):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        if chain_maxsize < 1:
            raise ValueError(
                f"chain_maxsize must be >= 1, got {chain_maxsize}")
        self.maxsize = maxsize
        self.chain_maxsize = chain_maxsize
        #: lookup hits and misses; fine-cell representative solves
        #: seeded from a chain anchor; coarse-cell (chain)
        #: representatives cold-solved; entries either store's FIFO
        #: bound dropped
        self.counts = Counters("hits", "misses", "chain_seeds",
                               "chain_solves", "evictions")
        self._data: Dict[tuple, Optional[np.ndarray]] = {}
        self._chain: Dict[tuple, Optional[np.ndarray]] = {}

    def lookup(self, key: tuple):
        """The cached anchor (may be None for a failed cell), or the
        :data:`WarmStartCache._MISSING` sentinel when unknown."""
        value = self._data.get(key, self._MISSING)
        self.counts["misses" if value is self._MISSING else "hits"] += 1
        return value

    def store(self, key: tuple, x) -> None:
        """Cache an anchor: ``None`` (failed cell), an ``x`` vector, or a
        tuple of per-cell artifacts (solution, sensitivities, hints...).
        Arrays are copied so callers cannot mutate cached state."""
        if key not in self._data and len(self._data) >= self.maxsize:
            self._data.pop(next(iter(self._data)))
            self.counts["evictions"] += 1
        if x is None:
            value = None
        elif isinstance(x, tuple):
            value = tuple(np.array(part, dtype=float, copy=True)
                          if isinstance(part, np.ndarray) else part
                          for part in x)
        else:
            value = np.asarray(x, dtype=float).copy()
        self._data[key] = value

    def lookup_chain(self, key: tuple):
        """The cached chain anchor ``x`` (``None`` for a failed coarse
        cell), or :data:`WarmStartCache._MISSING` when unknown.  Chain
        lookups do not touch the hit/miss counters — their effectiveness
        is measured by ``chain_seeds`` vs ``chain_solves``."""
        return self._chain.get(key, self._MISSING)

    def store_chain(self, key: tuple, x) -> None:
        """Cache a coarse-cell chain anchor (``x`` vector or ``None``)."""
        if key not in self._chain and len(self._chain) >= self.chain_maxsize:
            self._chain.pop(next(iter(self._chain)))
            self.counts["evictions"] += 1
        self._chain[key] = None if x is None \
            else np.asarray(x, dtype=float).copy()

    def stats(self) -> Dict[str, int]:
        """The counts and the ``entries``/``chain_entries`` gauges."""
        return {**self.counts, "entries": len(self._data),
                "chain_entries": len(self._chain)}

    def clear(self) -> None:
        self._data.clear()
        self._chain.clear()

    def __len__(self) -> int:
        return len(self._data)
