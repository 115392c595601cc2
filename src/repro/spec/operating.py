"""Operating range Theta and worst-case operating points (Sec. 2, Eq. 2).

The parametric *operational* yield demands every spec hold over the whole
operating range (temperature, supply voltage, ...).  The paper exploits
that each performance typically takes its minimum at a *vertex* of the box
Theta (performances are monotone in temperature/supply to first order), so
the worst-case operating point theta_wc^(i) is found by evaluating the
corners (Eq. 2) — this is also what bounds the Monte-Carlo effort by
``N * min(n_spec, 2^dim(Theta))`` in Sec. 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from ..errors import SpecificationError
from .specification import Spec


@dataclass(frozen=True)
class OperatingParameter:
    """One operating-condition axis, e.g. temperature or supply voltage."""

    name: str
    low: float
    high: float
    nominal: float

    def __post_init__(self):
        if not self.low <= self.nominal <= self.high:
            raise SpecificationError(
                f"operating parameter {self.name!r}: nominal "
                f"{self.nominal} outside [{self.low}, {self.high}]")


class OperatingRange:
    """A box of operating parameters ``Theta = {theta | low <= theta <= high}``."""

    def __init__(self, parameters: Sequence[OperatingParameter]):
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise SpecificationError("duplicate operating parameter names")
        self.parameters: Tuple[OperatingParameter, ...] = tuple(parameters)

    @property
    def dim(self) -> int:
        return len(self.parameters)

    def nominal(self) -> Dict[str, float]:
        """The nominal operating point."""
        return {p.name: p.nominal for p in self.parameters}

    def corners(self) -> List[Dict[str, float]]:
        """All ``2^dim`` vertices of the operating box."""
        axes = [(p.name, (p.low, p.high)) for p in self.parameters]
        result = []
        for values in itertools.product(*(v for _, v in axes)):
            result.append({name: value
                           for (name, _), value in zip(axes, values)})
        return result

    def corner_key(self, theta: Mapping[str, float]) -> Tuple[float, ...]:
        """Hashable identity of an operating point (for grouping specs that
        share a worst-case corner)."""
        return tuple(theta[p.name] for p in self.parameters)


def find_worst_case_operating_points(
    evaluate: Callable[[Mapping[str, float]], Mapping[str, float]],
    specs: Sequence[Spec],
    operating_range: OperatingRange,
) -> Dict[str, Dict[str, float]]:
    """Worst-case operating point per spec (Eq. 2), by corner enumeration.

    ``evaluate(theta)`` must return all performance values at the fixed
    current design/statistical point.  For each spec the corner or the
    nominal point with the smallest normalized margin is selected.
    Returns spec-performance+kind key -> theta dict.

    The number of ``evaluate`` calls is ``2^dim + 1``, matching the
    paper's effort bound.
    """
    candidates = operating_range.corners() + [operating_range.nominal()]
    evaluations = [(theta, evaluate(theta)) for theta in candidates]
    worst: Dict[str, Dict[str, float]] = {}
    for spec in specs:
        best_theta = None
        best_margin = None
        for theta, performances in evaluations:
            if spec.performance not in performances:
                raise SpecificationError(
                    f"evaluation is missing performance "
                    f"{spec.performance!r}")
            margin = spec.margin(performances[spec.performance])
            if best_margin is None or margin < best_margin:
                best_margin = margin
                best_theta = theta
        worst[spec_key(spec)] = dict(best_theta)
    return worst


def spec_key(spec: Spec) -> str:
    """Stable string key for a spec (used to index worst-case data)."""
    return f"{spec.performance}{spec.kind}"


def group_by_theta(
    worst_case: Mapping[str, Mapping[str, float]],
    operating_range: OperatingRange,
) -> Dict[Tuple[float, ...], List[str]]:
    """Group spec keys by identical worst-case operating point.

    Used by the Monte-Carlo verifier to run one simulation per distinct
    corner instead of one per spec (the ``N*`` remark of Sec. 2).
    """
    groups: Dict[Tuple[float, ...], List[str]] = {}
    for key, theta in worst_case.items():
        corner = operating_range.corner_key(theta)
        groups.setdefault(corner, []).append(key)
    return groups
