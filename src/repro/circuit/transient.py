"""Transient analysis with the backward-Euler method.

Each accepted time step solves the nonlinear circuit with the DC solver's
damped-Newton stage (:func:`repro.circuit.dc.newton_stage`, one row, at
most ``_MAX_NEWTON`` iterations), using the reactive devices'
backward-Euler companion models; a non-finite update fails the step at
once.  MOS intrinsic capacitances are attached as *fixed* linear
capacitors evaluated at the initial operating point — sufficient for the
large-signal slew/settling measurements this library performs, where the
explicit load and compensation capacitors dominate.

Backward Euler is unconditionally stable and slightly lossy; step sizes are
chosen by the caller (helpers compute sensible defaults from the requested
stop time).
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..errors import ConvergenceError, ExtractionError, SingularMatrixError
from .dc import CONVERGED, DCResult, newton_stage, solve_dc
from .devices import Stamper, _voltage
from .netlist import Circuit

_MAX_NEWTON = 60


class TranResult:
    """Waveforms of a transient run."""

    def __init__(self, circuit: Circuit, layout, times: np.ndarray,
                 solutions: np.ndarray):
        self._circuit = circuit
        self._layout = layout
        self.times = times
        self._solutions = solutions  # (n_steps, size)

    def voltage(self, node: str) -> np.ndarray:
        """Waveform of ``node`` over :attr:`times`."""
        index = self._layout.node_index.get(node)
        if index is None:
            from .netlist import is_ground
            if is_ground(node):
                return np.zeros(len(self.times))
            raise KeyError(f"unknown node {node!r}")
        if index < 0:  # ground reference
            return np.zeros(len(self.times))
        return self._solutions[:, index]

    def slew_rate(self, node: str, polarity: int = +1) -> float:
        """Maximum signed slope of the node waveform [V/s].

        ``polarity=+1`` returns the largest rising slope, ``-1`` the largest
        falling slope magnitude.

        Degenerate waveforms (fewer than two points, or duplicate
        timesteps) carry no slope information and raise
        :class:`~repro.errors.ExtractionError` instead of a bare numpy
        ``ValueError`` / division by zero.
        """
        v = self.voltage(node)
        if len(self.times) < 2:
            raise ExtractionError(
                f"slew rate of {node!r} needs at least 2 time points, "
                f"got {len(self.times)}")
        dt = np.diff(self.times)
        if np.any(dt <= 0.0):
            raise ExtractionError(
                f"slew rate of {node!r}: non-increasing timesteps in the "
                f"waveform (duplicate or reordered time points)")
        dv = np.diff(v) / dt
        if polarity >= 0:
            return float(np.max(dv))
        return float(-np.min(dv))


class _MosCapCompanion:
    """Fixed capacitor between two resolved node indices, used to attach MOS
    intrinsic capacitances during transient analysis."""

    def __init__(self, a: int, b: int, capacitance: float):
        self.a = a
        self.b = b
        self.c = capacitance
        self.v = 0.0

    def init(self, x: np.ndarray) -> None:
        self.v = _voltage(x, self.a) - _voltage(x, self.b)

    def stamp(self, st: Stamper, h: float) -> None:
        geq = self.c / h
        st.add_conductance(self.a, self.b, geq)
        st.add_rhs(self.a, geq * self.v)
        st.add_rhs(self.b, -geq * self.v)

    def update(self, x: np.ndarray) -> None:
        self.v = _voltage(x, self.a) - _voltage(x, self.b)


def _newton_step(circuit: Circuit, layout, x0: np.ndarray,
                 states: List[dict], caps: List[_MosCapCompanion],
                 h: float, t: float) -> np.ndarray:
    """One backward-Euler step: the shared damped-Newton stage
    (:func:`repro.circuit.dc.newton_stage`) at one row, with a kernel
    that stamps the companion models and solves densely."""
    def stage(rows, gmin, scale):
        def solve(x, active):
            st = Stamper(layout.size)
            for dev, nodes, branches, state in zip(circuit.devices,
                                                   layout.device_nodes,
                                                   layout.device_branches,
                                                   states):
                dev.stamp_tran(st, x[0], nodes, branches, state, h, t)
            for cap in caps:
                cap.stamp(st, h)
            diag = np.arange(layout.n_nodes)
            st.matrix[diag, diag] += gmin
            try:
                x_new = np.linalg.solve(st.matrix, st.rhs)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError(
                    f"singular transient matrix at t={t:g}: {exc}") from exc
            return x_new[None], None

        return solve

    x, _, outcome = newton_stage(stage, np.zeros(1, dtype=np.intp),
                                 x0[None], layout.n_nodes,
                                 max_iterations=_MAX_NEWTON)
    if outcome[0] != CONVERGED:
        raise ConvergenceError(f"transient Newton failed at t={t:g}")
    return x[0]


def solve_transient(circuit: Circuit, t_stop: float, dt: float,
                    temp_c: float = 27.0,
                    op: Optional[DCResult] = None) -> TranResult:
    """Integrate the circuit from its DC operating point to ``t_stop``.

    ``dt`` is the fixed backward-Euler step.  Sources with a ``waveform``
    callable follow it; all others hold their DC value.  Pass a pre-solved
    ``op`` to skip the initial DC analysis.
    """
    layout = circuit.layout()
    if op is None:
        op = solve_dc(circuit, temp_c=temp_c)
    x = op.x.copy()

    states: List[dict] = [dict() for _ in circuit.devices]
    for dev, nodes, branches, state in zip(circuit.devices,
                                           layout.device_nodes,
                                           layout.device_branches, states):
        dev.init_state(x, nodes, branches, state)

    caps: List[_MosCapCompanion] = []
    ops = op.operating_points()
    for dev, nodes in zip(circuit.devices, layout.device_nodes):
        record = ops.get(dev.name)
        if record is None or "cgs" not in record:
            continue
        nd, ng, ns, nb = nodes
        if record["swapped"]:
            nd, ns = ns, nd
        for a, b, c in ((ng, ns, record["cgs"]), (ng, nd, record["cgd"]),
                        (nd, nb, record["cdb"]), (ns, nb, record["csb"])):
            companion = _MosCapCompanion(a, b, c)
            companion.init(x)
            caps.append(companion)

    n_steps = max(1, int(round(t_stop / dt)))
    times = np.empty(n_steps + 1)
    solutions = np.empty((n_steps + 1, layout.size))
    times[0] = 0.0
    solutions[0] = x
    for k in range(1, n_steps + 1):
        t = k * dt
        x = _newton_step(circuit, layout, x, states, caps, dt, t)
        for dev, nodes, branches, state in zip(circuit.devices,
                                               layout.device_nodes,
                                               layout.device_branches,
                                               states):
            dev.update_state(x, nodes, branches, state)
        for cap in caps:
            cap.update(x)
        times[k] = t
        solutions[k] = x
    return TranResult(circuit, layout, times, solutions)


def step_waveform(t_step: float, v_before: float, v_after: float,
                  t_rise: float = 0.0) -> Callable[[float], float]:
    """Build a step (optionally with linear rise) source waveform."""
    def waveform(t: float) -> float:
        if t < t_step:
            return v_before
        if t_rise > 0.0 and t < t_step + t_rise:
            return v_before + (v_after - v_before) * (t - t_step) / t_rise
        return v_after
    return waveform


def pulse_waveform(v_low: float, v_high: float, t_delay: float,
                   t_width: float, t_edge: float = 0.0
                   ) -> Callable[[float], float]:
    """Build a single-pulse source waveform with linear edges."""
    def waveform(t: float) -> float:
        if t < t_delay:
            return v_low
        if t_edge > 0.0 and t < t_delay + t_edge:
            return v_low + (v_high - v_low) * (t - t_delay) / t_edge
        if t < t_delay + t_edge + t_width:
            return v_high
        t_fall = t_delay + t_edge + t_width
        if t_edge > 0.0 and t < t_fall + t_edge:
            return v_high + (v_low - v_high) * (t - t_fall) / t_edge
        return v_low
    return waveform
