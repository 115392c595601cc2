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

The probes of one gradient are mutually independent, and
:func:`~repro.yieldsim.executor.evaluate_probes` runs them, on an
optional ``pool`` (:class:`~repro.yieldsim.executor.PoolHandle`) one
chunk per worker, else as one chunk in the caller.  Within a chunk the
``s`` probes (rows at one ``(d, theta)``) go through the sample-batched
engine, as Monte-Carlo rows do.  Every path evaluates bit-identical
values, so gradients are bit-identical whichever one ran.
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


def _differences(evaluator: Evaluator, performance: str,
                 base_value: float, steps: List[float],
                 points: List[Tuple], pool) -> List[float]:
    """Forward differences of ``performance`` from ``base_value`` over
    the ``(d, s_hat, theta)`` probe ``points`` (one per step), evaluated
    by :func:`~repro.yieldsim.executor.evaluate_probes`."""
    from ..yieldsim.executor import evaluate_probes
    values = evaluate_probes(evaluator, points, pool)
    return [(probe[performance] - base_value) / step
            for probe, step in zip(values, steps)]


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
    points = []
    for k in range(len(s_hat)):
        probe = s_hat.copy()
        probe[k] += step
        points.append((d, probe, theta))
    return np.array(_differences(evaluator, performance, base_value,
                                 [step] * len(points), points, pool),
                    dtype=float)


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
    probes = list(_design_probes(evaluator, d, rel_step))
    column = _differences(evaluator, performance, base_value,
                          [step for _, step, _ in probes],
                          [(probe, s_hat, theta) for _, _, probe in probes],
                          pool)
    return dict(zip([name for name, _, _ in probes], column))


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
