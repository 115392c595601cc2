"""Worst-case point search in the statistical space (Eq. 8).

The worst-case point of spec ``i`` is the statistical parameter vector of
highest probability density on the specification boundary:

    s_wc = argmin { s^T s  |  f(d, s, theta_wc) = f_b }            (Eq. 8)

in *normalized* coordinates (Sec. 4 transform already applied, so the
probability contours are spheres and the Euclidean norm is the right
metric).  The signed **worst-case distance** ``beta_wc = +-||s_wc||`` is
positive when the nominal circuit satisfies the spec and negative when it
does not [Antreich/Graeb/Wieser 1994, ref. 10].

Algorithm: iterated linearization, the classic worst-case-distance solver —
linearize ``f`` at the current point (dim(s)+1 simulations), solve the
minimum-norm-on-hyperplane problem in closed form, re-simulate, repeat.
Mismatch-type performances (e.g. CMRR) are *quadratic* around the nominal
point with a near-zero gradient, which stalls the iteration when started at
the origin (the difficulty Sec. 5.2 attributes to ref. [12]); a multistart
over random perturbed origins handles this, and a scipy SLSQP run is kept
as a final fallback.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np
from scipy import optimize

from ..evaluation.evaluator import Evaluator
from ..evaluation.gradient import performance_gradient_s
from ..spec.operating import spec_key
from ..spec.specification import Spec
from ..yieldsim.executor import evaluate_probes

_LOG = logging.getLogger(__name__)

#: Search sphere radius: points beyond this many sigmas are statistically
#: irrelevant (Phi(8) ~ 1 - 6e-16), so specs whose boundary lies outside
#: are reported as unreachable with beta clamped here.
BETA_MAX = 8.0

#: Maximum iterated-linearization steps.
MAX_ITERATIONS = 15

#: Step damping: maximum move per iteration in normalized coordinates.
MAX_STEP = 2.5

#: Relative tolerance on the boundary condition |g - g_b|.
BOUNDARY_RTOL = 1e-3

#: Convergence tolerance on the point movement.
POINT_ATOL = 1e-3

#: Finite-difference step of the SLSQP fallback's constraint Jacobian:
#: SLSQP's default ``eps``.
SLSQP_EPS = float(np.sqrt(np.finfo(float).eps))


@dataclass
class WorstCaseResult:
    """Outcome of one worst-case point search.

    All quantities are in the internal normalized convention (``g >= g_b``
    after :meth:`repro.spec.Spec.normalize`):

    * ``s_wc``      — the worst-case point (normalized coordinates),
    * ``beta_wc``   — signed worst-case distance,
    * ``gradient``  — grad_s_hat g at ``s_wc`` (this *is* the spec-wise
      linearization gradient of Eq. 16; no extra simulations needed),
    * ``g_wc``      — performance value at ``s_wc``,
    * ``g_nominal`` — performance value at ``s_hat = 0``,
    * ``on_boundary`` — False when the boundary is unreachable within
      :data:`BETA_MAX` and the result is a clamped surrogate.
    """

    spec: Spec
    s_wc: np.ndarray
    beta_wc: float
    gradient: np.ndarray
    g_wc: float
    g_nominal: float
    on_boundary: bool
    iterations: int
    method: str

    @property
    def nominal_satisfied(self) -> bool:
        return self.g_nominal >= self.spec.normalized_bound


def _boundary_tolerance(g_bound: float, g_nominal: float) -> float:
    scale = max(abs(g_bound), abs(g_nominal - g_bound), 1.0)
    return BOUNDARY_RTOL * scale


def _closed_form_step(s_a: np.ndarray, g_a: float, grad: np.ndarray,
                      g_bound: float) -> Optional[np.ndarray]:
    """Minimum-norm point on the linearized boundary
    ``g_a + grad . (s - s_a) = g_bound``; None for a vanishing gradient."""
    gg = float(grad @ grad)
    if gg < 1e-20:
        return None
    return grad * ((g_bound - g_a + float(grad @ s_a)) / gg)


def _iterate(evaluator: Evaluator, spec: Spec, d: Mapping[str, float],
             theta: Mapping[str, float], s_start: np.ndarray,
             g_nominal: float) -> Optional[WorstCaseResult]:
    """One iterated-linearization run from ``s_start``; None on failure."""
    g_bound = spec.normalized_bound
    tol = _boundary_tolerance(g_bound, g_nominal)
    s_a = np.asarray(s_start, dtype=float).copy()
    g_a = spec.normalize(
        evaluator.performance(spec.performance, d, s_a, theta))
    grad = np.zeros_like(s_a)
    for iteration in range(1, MAX_ITERATIONS + 1):
        grad = performance_gradient_s(
            evaluator, spec.performance, d, s_a, theta,
            base_value=spec.denormalize(g_a)) * spec.sign
        s_new = _closed_form_step(s_a, g_a, grad, g_bound)
        if s_new is None:
            return None
        step = s_new - s_a
        step_norm = float(np.linalg.norm(step))
        if step_norm > MAX_STEP:
            s_new = s_a + step * (MAX_STEP / step_norm)
        norm = float(np.linalg.norm(s_new))
        if norm > BETA_MAX:
            s_new = s_new * (BETA_MAX / norm)
        g_new = spec.normalize(
            evaluator.performance(spec.performance, d, s_new, theta))
        moved = float(np.linalg.norm(s_new - s_a))
        s_a, g_a = s_new, g_new
        if abs(g_a - g_bound) <= tol and moved <= POINT_ATOL * \
                max(1.0, float(np.linalg.norm(s_a))):
            sign = 1.0 if g_nominal >= g_bound else -1.0
            return WorstCaseResult(
                spec=spec, s_wc=s_a, beta_wc=sign * float(np.linalg.norm(s_a)),
                gradient=grad, g_wc=g_a, g_nominal=g_nominal,
                on_boundary=True, iterations=iteration,
                method="iterated-linearization")
    return None


def _slsqp_fallback(evaluator: Evaluator, spec: Spec,
                    d: Mapping[str, float], theta: Mapping[str, float],
                    s_start: np.ndarray, g_nominal: float
                    ) -> Optional[WorstCaseResult]:
    """scipy SLSQP on Eq. 8 directly (each constraint probe = 1 simulation).

    The constraint Jacobian is SLSQP's default one written out — forward
    differences with the absolute step :data:`SLSQP_EPS`, stepping
    backwards where a probe would leave the box — so that its dim(s)
    probes run as one batch (:func:`~repro.yieldsim.executor.
    evaluate_probes`) instead of one scalar simulation at a time.  Its
    values, evaluations and cache order equal scipy's own Jacobian."""
    g_bound = spec.normalized_bound
    dim = len(s_start)

    def objective(s):
        return float(s @ s)

    def objective_grad(s):
        return 2.0 * s

    def boundary(s):
        return spec.normalize(
            evaluator.performance(spec.performance, d, s, theta)) - g_bound

    def boundary_jac(s):
        # scipy's zero-step and no-room branches cannot fire in the box.
        s = np.clip(s, -BETA_MAX, BETA_MAX)
        f0 = boundary(s)  # a cache hit, re-read as scipy does
        stepped = s + np.where(s + SLSQP_EPS > BETA_MAX, -SLSQP_EPS,
                               SLSQP_EPS)
        rows = np.tile(s, (dim, 1))
        np.fill_diagonal(rows, stepped)
        values = evaluate_probes(evaluator, [(d, row, theta) for row in rows])
        margins = np.array([spec.normalize(value[spec.performance])
                            for value in values]) - g_bound
        return (margins - f0) / (stepped - s)

    start = np.asarray(s_start, dtype=float)
    if float(np.linalg.norm(start)) < 1e-9:
        start = np.full(dim, 0.3)
    simulations = evaluator.simulation_count
    _LOG.debug("SLSQP fallback for %s at theta=%s", spec_key(spec),
               dict(theta))
    result = optimize.minimize(
        objective, start, jac=objective_grad, method="SLSQP",
        bounds=[(-BETA_MAX, BETA_MAX)] * dim,
        constraints=[{"type": "eq", "fun": boundary, "jac": boundary_jac}],
        options={"maxiter": 25, "ftol": 1e-8})
    found = _slsqp_point(evaluator, spec, d, theta, result, g_nominal) \
        if result.success else None
    _LOG.debug("SLSQP fallback for %s ended: %s (nit=%d, nfev=%d, "
               "njev=%d, %d simulations); %s", spec_key(spec),
               result.message, result.nit, result.nfev, result.njev,
               evaluator.simulation_count - simulations,
               "returned a point" if found is not None else "no point")
    return found


def _slsqp_point(evaluator: Evaluator, spec: Spec, d: Mapping[str, float],
                 theta: Mapping[str, float], result, g_nominal: float
                 ) -> Optional[WorstCaseResult]:
    """The worst-case result at a converged SLSQP point, or None when
    the point leaves the search sphere or misses the boundary."""
    g_bound = spec.normalized_bound
    s_wc = np.asarray(result.x, dtype=float)
    if float(np.linalg.norm(s_wc)) > BETA_MAX:
        return None
    g_wc = spec.normalize(
        evaluator.performance(spec.performance, d, s_wc, theta))
    tol = _boundary_tolerance(g_bound, g_nominal)
    if abs(g_wc - g_bound) > 10 * tol:
        return None
    gradient = performance_gradient_s(
        evaluator, spec.performance, d, s_wc, theta,
        base_value=spec.denormalize(g_wc)) * spec.sign
    sign = 1.0 if g_nominal >= g_bound else -1.0
    return WorstCaseResult(
        spec=spec, s_wc=s_wc, beta_wc=sign * float(np.linalg.norm(s_wc)),
        gradient=gradient, g_wc=g_wc, g_nominal=g_nominal,
        on_boundary=True, iterations=int(result.nit), method="slsqp")


def _unreachable(evaluator: Evaluator, spec: Spec, d: Mapping[str, float],
                 theta: Mapping[str, float], g_nominal: float
                 ) -> WorstCaseResult:
    """Surrogate result when the spec boundary lies outside the BETA_MAX
    sphere: the spec contributes (almost) no yield loss if satisfied, or is
    hopeless if violated.  The gradient at the nominal point still provides
    a usable linearization direction."""
    s0 = np.zeros(evaluator.template.statistical_space.dim)
    gradient = performance_gradient_s(
        evaluator, spec.performance, d, s0, theta,
        base_value=spec.denormalize(g_nominal)) * spec.sign
    sign = 1.0 if g_nominal >= spec.normalized_bound else -1.0
    norm = float(np.linalg.norm(gradient))
    direction = gradient / norm if norm > 1e-20 else np.zeros_like(gradient)
    return WorstCaseResult(
        spec=spec, s_wc=-sign * BETA_MAX * direction,
        beta_wc=sign * BETA_MAX, gradient=gradient, g_wc=g_nominal,
        g_nominal=g_nominal, on_boundary=False, iterations=0,
        method="unreachable")


def find_worst_case_point(
    evaluator: Evaluator,
    spec: Spec,
    d: Mapping[str, float],
    theta: Mapping[str, float],
    s_start: Optional[np.ndarray] = None,
    multistart: int = 2,
    seed: int = 0,
) -> WorstCaseResult:
    """Solve Eq. 8 for one spec at the design point ``d`` and operating
    point ``theta``.

    ``s_start`` seeds the first run (e.g. the previous iteration's
    worst-case point, which the paper notes changes with ``d``).
    ``multistart`` additional randomized starts cover quadratic
    (mismatch-type) performances; among converged runs the one with the
    smallest ``||s_wc||`` wins, as required by the argmin of Eq. 8.
    """
    dim = evaluator.template.statistical_space.dim
    g_nominal = spec.normalize(
        evaluator.performance(spec.performance, d,
                              np.zeros(dim), theta))
    # Cheap unreachability precheck: with the nominal-point gradient, the
    # boundary sits at roughly (g_b - g0)/||grad|| sigmas.  Specs whose
    # first-order boundary lies far outside the BETA_MAX sphere (very
    # robust, or hopeless) are not worth a full search — this is where the
    # bulk of wasted simulations would otherwise go.  The gradient probes
    # are cached, so a subsequent full search reuses them.
    grad0 = performance_gradient_s(
        evaluator, spec.performance, d, np.zeros(dim), theta,
        base_value=spec.denormalize(g_nominal)) * spec.sign
    norm0 = float(np.linalg.norm(grad0))
    beta_estimate = abs(g_nominal - spec.normalized_bound) / norm0 \
        if norm0 > 1e-20 else float("inf")
    probe_start: Optional[np.ndarray] = None
    if beta_estimate > 1.5 * BETA_MAX:
        # First-order unreachable — but a tent-shaped (quadratic) spec has
        # a near-zero gradient at the origin and may still have a nearby
        # boundary (Fig. 1 / Sec. 5.2).  Confirm with far probes along the
        # coordinate axes (a mismatch tent responds to every axis of its
        # parameter pair, so axis probes see it even in high dimension,
        # where random directions would not).  A probe that crosses or
        # substantially approaches the bound re-opens the search and
        # seeds it.
        margin0 = g_nominal - spec.normalized_bound
        radius = 0.6 * BETA_MAX
        for axis in range(dim):
            s_probe = np.zeros(dim)
            s_probe[axis] = radius if axis % 2 == 0 else -radius
            g_probe = spec.normalize(
                evaluator.performance(spec.performance, d, s_probe, theta))
            margin_probe = g_probe - spec.normalized_bound
            if margin_probe * margin0 < 0 or \
                    abs(margin_probe) < 0.5 * abs(margin0):
                probe_start = s_probe
                beta_estimate = BETA_MAX  # reachable after all
                break
        if probe_start is None:
            return _unreachable(evaluator, spec, d, theta, g_nominal)
    starts = []
    if s_start is not None and float(np.linalg.norm(s_start)) > 1e-12:
        starts.append(np.asarray(s_start, dtype=float))
    if probe_start is not None:
        starts.append(probe_start)
    starts.append(np.zeros(dim))
    rng = np.random.default_rng(seed)
    for _ in range(multistart):
        starts.append(rng.standard_normal(dim) * 0.5)

    best: Optional[WorstCaseResult] = None
    for start in starts:
        result = _iterate(evaluator, spec, d, theta, start, g_nominal)
        if result is None:
            continue
        if best is None or abs(result.beta_wc) < abs(best.beta_wc):
            best = result
        # A converged boundary point well inside the search sphere is the
        # answer; further restarts would only re-derive it (each costs
        # O(dim) simulations).  Restarts are kept only while nothing has
        # converged or the point sits suspiciously at the clamp radius.
        if best.on_boundary and abs(best.beta_wc) < 0.95 * BETA_MAX:
            break
    if best is None and beta_estimate <= BETA_MAX:
        best = _slsqp_fallback(evaluator, spec, d, theta,
                               starts[0], g_nominal)
    if best is None:
        best = _unreachable(evaluator, spec, d, theta, g_nominal)
    return best


def find_all_worst_case_points(
    evaluator: Evaluator,
    d: Mapping[str, float],
    theta_per_spec: Mapping[str, Mapping[str, float]],
    previous: Optional[Mapping[str, WorstCaseResult]] = None,
    multistart: int = 2,
    seed: int = 0,
    pool=None,
) -> Dict[str, WorstCaseResult]:
    """Worst-case points for every template spec, keyed by
    :func:`repro.spec.spec_key`.  Warm-starts from ``previous`` results.

    With a live :class:`~repro.yieldsim.executor.PoolHandle`, the per-spec
    searches run concurrently (one pool task each — the Eq.-8 searches of
    different specs are independent).  Results and Table-7 accounting are
    identical to the serial loop: each search is a pure function of its
    inputs, and worker effort is folded back in spec order.
    """
    specs = list(evaluator.template.specs)
    tasks = []
    for spec in specs:
        key = spec_key(spec)
        s_start = previous[key].s_wc if previous and key in previous \
            else None
        tasks.append((spec, dict(d), dict(theta_per_spec[key]), s_start,
                      multistart, seed))
    if pool is not None and pool.alive and pool.compatible(evaluator) \
            and len(specs) > 1:
        found = pool.run_tasks(find_worst_case_point, tasks,
                               evaluator).results
    else:
        found = [find_worst_case_point(evaluator, *task) for task in tasks]
    return {spec_key(spec): result for spec, result in zip(specs, found)}
