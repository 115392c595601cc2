"""Circuit-template abstraction: the black-box ``f(d, s, theta)``.

A :class:`CircuitTemplate` bundles everything the optimization algorithm
needs about one sizing problem:

* the design space ``d`` (parameter names, bounds, initial values),
* the statistical space ``s`` (global + local, Sec. 4 transform inside),
* the operating range ``Theta``,
* the performance/spec list,
* ``evaluate(d, s_hat, theta, performances)`` — simulate and extract the
  requested performances (all of them by default),
* ``constraints(d)``              — the functional constraints c(d) >= 0
  that define the feasibility region F (Sec. 5.1).

Concrete templates (folded-cascode, Miller) live in :mod:`repro.circuits`.
The algorithmic layers never touch a netlist directly; they only see this
interface, which is exactly the structure the paper assumes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import (Callable, Collection, Dict, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from ..errors import ReproError
from ..spec.operating import OperatingRange
from ..spec.specification import Performance, Spec, check_unique_performances
from ..statistics.space import StatisticalSpace


@dataclass(frozen=True)
class DesignParameter:
    """One designable parameter (transistor width/length, capacitor, ...)."""

    name: str
    lower: float
    upper: float
    initial: float
    unit: str = "m"

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ReproError(
                f"design parameter {self.name!r}: lower bound must be below "
                f"upper bound")
        if not self.lower <= self.initial <= self.upper:
            raise ReproError(
                f"design parameter {self.name!r}: initial value "
                f"{self.initial} outside [{self.lower}, {self.upper}]")

    def clip(self, value: float) -> float:
        return min(max(value, self.lower), self.upper)


class CircuitTemplate(abc.ABC):
    """Abstract sizing problem; see module docstring."""

    #: Problem name (used in reports).
    name: str = "unnamed"

    def __init__(self,
                 design_parameters: Sequence[DesignParameter],
                 performances: Sequence[Performance],
                 specs: Sequence[Spec],
                 operating_range: OperatingRange,
                 statistical_space: StatisticalSpace,
                 constraint_names: Sequence[str]):
        self.design_parameters: Tuple[DesignParameter, ...] = \
            tuple(design_parameters)
        self.performances: Tuple[Performance, ...] = tuple(performances)
        self.specs: Tuple[Spec, ...] = tuple(specs)
        check_unique_performances(self.specs)
        self.operating_range = operating_range
        self.statistical_space = statistical_space
        self.constraint_names: Tuple[str, ...] = tuple(constraint_names)
        names = [p.name for p in self.design_parameters]
        if len(set(names)) != len(names):
            raise ReproError("duplicate design parameter names")
        performance_names = {p.name for p in self.performances}
        for spec in self.specs:
            if spec.performance not in performance_names:
                raise ReproError(
                    f"spec references unknown performance "
                    f"{spec.performance!r}")

    # -- design-space helpers ------------------------------------------------
    @property
    def design_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.design_parameters)

    def initial_design(self) -> Dict[str, float]:
        """The (possibly infeasible) starting design d0."""
        return {p.name: p.initial for p in self.design_parameters}

    def clip_design(self, d: Mapping[str, float]) -> Dict[str, float]:
        """Clamp a design dict into the box bounds."""
        return {p.name: p.clip(float(d[p.name]))
                for p in self.design_parameters}

    def design_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Lower/upper bound vectors in design-parameter order."""
        lower = np.array([p.lower for p in self.design_parameters])
        upper = np.array([p.upper for p in self.design_parameters])
        return lower, upper

    def design_vector(self, d: Mapping[str, float]) -> np.ndarray:
        """Dict -> vector in canonical parameter order."""
        return np.array([float(d[name]) for name in self.design_names])

    def design_dict(self, vector: np.ndarray) -> Dict[str, float]:
        """Vector -> dict in canonical parameter order."""
        return {name: float(value)
                for name, value in zip(self.design_names, vector)}

    # -- the black box --------------------------------------------------------
    @abc.abstractmethod
    def evaluate(self, d: Mapping[str, float], s_hat: np.ndarray,
                 theta: Mapping[str, float],
                 performances: Optional[Collection[str]] = None
                 ) -> Dict[str, float]:
        """Simulate at ``(d, s_hat, theta)``; return performance values.

        ``s_hat`` is in normalized coordinates (Sec. 4); the template
        applies ``G(d)`` via its statistical space.  ``performances``
        names the values wanted (``None``: every declared performance);
        a template may skip the analyses only unrequested values need,
        and must return a value for every requested performance, in
        presentation units.  Values it returns must not depend on what
        else was requested.
        """

    @abc.abstractmethod
    def constraints(self, d: Mapping[str, float],
                    theta: Optional[Mapping[str, float]] = None
                    ) -> Dict[str, float]:
        """Evaluate the functional constraints c(d) at the nominal
        statistical point; values >= 0 mean satisfied.  Keys must match
        :attr:`constraint_names`."""

    def evaluate_batch(self, d: Mapping[str, float],
                       rows: Sequence[np.ndarray],
                       theta: Mapping[str, float],
                       performances: Optional[Collection[str]] = None
                       ) -> list:
        """Evaluate many statistical points at one ``(d, theta)``, each
        for ``performances`` (as in :meth:`evaluate`).

        Returns one entry per row, **in row order**: the performance
        dict on success, or the raised exception object on failure (the
        caller owns fault classification — a batch must report every
        sample's outcome, not die at the first bad one).  The base
        implementation is a serial loop; templates with a vectorized
        simulation path (see
        :meth:`repro.circuits.base.OpampTemplate.evaluate_batch`)
        override it and must preserve these exact semantics.
        """
        entries: list = []
        for row in rows:
            try:
                entries.append(self.evaluate(d, row, theta, performances))
            except Exception as exc:
                entries.append(exc)
        return entries

    # -- convenience -----------------------------------------------------------
    def requested_performances(self,
                               performances: Optional[Collection[str]]
                               ) -> Tuple[str, ...]:
        """The declared performances a request covers, in declaration
        order (``None``: all of them)."""
        return tuple(p.name for p in self.performances
                     if performances is None or p.name in performances)

    def spec_for(self, performance: str) -> Spec:
        """The (first) spec bounding a performance."""
        for spec in self.specs:
            if spec.performance == performance:
                return spec
        raise ReproError(f"no spec on performance {performance!r}")


def measure_requested(performances: Optional[Collection[str]],
                      measurements: Mapping[str, Callable[[], float]]
                      ) -> Dict[str, float]:
    """Run the measurements of the requested performances, in the order
    of ``measurements`` (``None``: every one), and return their values.

    A template's one ``extract`` path: each value is a zero-argument
    callable, so an unrequested performance costs nothing, and the
    measurements memoize what they share (the bench's 1 Hz gains, its
    transit frequency), so a value is bitwise the same whatever else the
    request holds."""
    return {name: measure() for name, measure in measurements.items()
            if performances is None or name in performances}
