"""Finite-difference gradients of performances.

The worst-case point search (Eq. 8) needs ``grad_s f`` and the spec-wise
linear models (Eq. 16) additionally need ``grad_d f``.  The paper's
industrial simulator provided sensitivities; here they are computed by
forward differences on the counted evaluator, which keeps the simulation
accounting honest (each probe is one simulation, as it would be in the
industrial flow).

Normalized statistical coordinates are all O(1) (unit variance), so one
absolute step works for ``s``.  Design parameters span decades of physical
magnitude, so their step is relative.

The probes of one gradient are mutually independent.  They run on an
optional ``pool`` (:class:`~repro.yieldsim.executor.PoolHandle`) via
:func:`~repro.yieldsim.executor.dispatch_points`; without one, the ``s``
probes (dim(s) rows at one ``(d, theta)``) go through the sample-batched
engine in one :func:`~repro.yieldsim.executor.batched_columns` call.
Every path evaluates bit-identical values, so gradients are
bit-identical whichever one ran.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from .evaluator import Evaluator

#: Absolute step in normalized statistical coordinates (unit variance).
STEP_S = 1e-3

#: Relative step for design parameters.
STEP_D_REL = 1e-3


def _design_step(parameter, value: float, rel_step: float) -> float:
    """Finite-difference step for one design parameter.

    Relative to the current value, but floored at a fraction of the
    parameter's box span so parameters sitting at (or near) zero still get
    a numerically meaningful probe."""
    span = parameter.upper - parameter.lower
    return max(abs(value) * rel_step, span * rel_step * 1e-2, 1e-15)


def _design_probes(evaluator: Evaluator, d: Mapping[str, float],
                   rel_step: float
                   ) -> Iterator[Tuple[str, float, Dict[str, float]]]:
    """``(name, step, probe_d)`` per design parameter; probes respect the
    box bounds by stepping backwards at the upper bound."""
    for parameter in evaluator.template.design_parameters:
        name = parameter.name
        step = _design_step(parameter, d[name], rel_step)
        if d[name] + step > parameter.upper:
            step = -step
        probe = dict(d)
        probe[name] = d[name] + step
        yield name, step, probe


def _differences(evaluator: Evaluator, base: Mapping[str, float],
                 steps: List[float], points: List[Tuple], pool,
                 shared_d_theta: bool) -> Dict[str, List[float]]:
    """Forward differences of every performance in ``base`` over the
    ``(d, s_hat, theta)`` probe ``points`` (one per step).  The probes
    run on the pool when one is usable, else through the sample-batched
    engine when every point shares ``(d, theta)``, else one at a time."""
    from ..yieldsim.executor import batched_columns, dispatch_points
    values = dispatch_points(pool, evaluator, points)
    if values is None and shared_d_theta and len(points) > 1:
        d, _, theta = points[0]
        columns = batched_columns(evaluator, d, [theta],
                                  [s_hat for _, s_hat, _ in points])
        if columns is not None:
            values = [column[0] for column in columns]
    if values is None:
        values = [evaluator.evaluate(d, s_hat, theta)
                  for d, s_hat, theta in points]
    return {name: [(probe[name] - base[name]) / step
                   for probe, step in zip(values, steps)]
            for name in base}


def _gradients_s(evaluator: Evaluator, base: Mapping[str, float],
                 d: Mapping[str, float], s_hat: np.ndarray,
                 theta: Mapping[str, float], step: float,
                 pool) -> Dict[str, np.ndarray]:
    points = []
    for k in range(len(s_hat)):
        probe = s_hat.copy()
        probe[k] += step
        points.append((d, probe, theta))
    columns = _differences(evaluator, base, [step] * len(points), points,
                           pool, shared_d_theta=True)
    return {name: np.array(column, dtype=float)
            for name, column in columns.items()}


def _gradients_d(evaluator: Evaluator, base: Mapping[str, float],
                 d: Mapping[str, float], s_hat: np.ndarray,
                 theta: Mapping[str, float], rel_step: float,
                 pool) -> Dict[str, Dict[str, float]]:
    probes = list(_design_probes(evaluator, d, rel_step))
    columns = _differences(evaluator, base,
                           [step for _, step, _ in probes],
                           [(probe, s_hat, theta) for _, _, probe in probes],
                           pool, shared_d_theta=False)
    return {name: dict(zip([pname for pname, _, _ in probes], column))
            for name, column in columns.items()}


def performance_gradient_s(
    evaluator: Evaluator,
    performance: str,
    d: Mapping[str, float],
    s_hat: np.ndarray,
    theta: Mapping[str, float],
    base_value: Optional[float] = None,
    step: float = STEP_S,
    pool=None,
) -> np.ndarray:
    """``grad_s_hat f`` by forward differences (dim(s) extra simulations).

    Pass ``base_value`` to reuse an already simulated value at ``s_hat``.
    """
    s_hat = np.asarray(s_hat, dtype=float)
    if base_value is None:
        base_value = evaluator.performance(performance, d, s_hat, theta)
    return _gradients_s(evaluator, {performance: base_value}, d, s_hat,
                        theta, step, pool)[performance]


def all_gradients_s(
    evaluator: Evaluator,
    d: Mapping[str, float],
    s_hat: np.ndarray,
    theta: Mapping[str, float],
    step: float = STEP_S,
    pool=None,
) -> Dict[str, np.ndarray]:
    """Gradients of *all* template performances w.r.t. ``s_hat`` from one
    shared set of probes (dim(s)+1 simulations total).

    One simulation evaluates every performance at once (as in a real
    testbench), so when several specs share an operating point their
    gradients come at no extra cost.
    """
    s_hat = np.asarray(s_hat, dtype=float)
    base = evaluator.evaluate(d, s_hat, theta)
    return _gradients_s(evaluator, base, d, s_hat, theta, step, pool)


def performance_gradient_d(
    evaluator: Evaluator,
    performance: str,
    d: Mapping[str, float],
    s_hat: np.ndarray,
    theta: Mapping[str, float],
    base_value: Optional[float] = None,
    rel_step: float = STEP_D_REL,
    pool=None,
) -> Dict[str, float]:
    """``grad_d f`` by forward differences (dim(d) extra simulations).

    Returns a dict keyed by design-parameter name.  Probes respect the box
    bounds by stepping backwards at the upper bound.
    """
    if base_value is None:
        base_value = evaluator.performance(performance, d, s_hat, theta)
    return _gradients_d(evaluator, {performance: base_value}, d, s_hat,
                        theta, rel_step, pool)[performance]


def all_gradients_d(
    evaluator: Evaluator,
    d: Mapping[str, float],
    s_hat: np.ndarray,
    theta: Mapping[str, float],
    rel_step: float = STEP_D_REL,
    pool=None,
) -> Dict[str, Dict[str, float]]:
    """Gradients of all performances w.r.t. all design parameters from one
    shared set of probes (dim(d)+1 simulations)."""
    base = evaluator.evaluate(d, s_hat, theta)
    return _gradients_d(evaluator, base, d, s_hat, theta, rel_step, pool)


def constraint_jacobian(
    evaluator: Evaluator,
    d: Mapping[str, float],
    rel_step: float = STEP_D_REL,
) -> tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """Constraint values and their Jacobian w.r.t. ``d`` (Eq. 15 inputs).

    Returns ``(c0, jac)`` with ``jac[constraint][parameter]``.  Costs
    dim(d)+1 constraint (DC) simulations.
    """
    c0 = evaluator.constraints(d)
    jacobian: Dict[str, Dict[str, float]] = {name: {} for name in c0}
    for pname, step, probe in _design_probes(evaluator, d, rel_step):
        values = evaluator.constraints(probe)
        for cname in c0:
            jacobian[cname][pname] = (values[cname] - c0[cname]) / step
    return c0, jacobian
