"""Core of the reproduction: the paper's primary contribution.

* :mod:`repro.core.worst_case`        — worst-case points (Eq. 8),
* :mod:`repro.core.mismatch`          — the mismatch measure (Eq. 9),
* :mod:`repro.core.linear_model`      — spec-wise linearization (Eq. 16,
  21-22),
* :mod:`repro.core.estimator`         — linearized-model Monte-Carlo yield
  with incremental/exact coordinate evaluation (Eq. 17-20),
* :mod:`repro.core.constraints`       — linearized feasibility region
  (Eq. 15),
* :mod:`repro.core.feasible_point`    — feasible starting point (Sec. 5.5),
* :mod:`repro.core.coordinate_search` — Eq. 19 maximization,
* :mod:`repro.core.line_search`       — feasibility line search (Eq. 23),
* :mod:`repro.core.optimizer`         — the full Fig. 6 loop (its
  simulation-based Eq. 6-7 verification runs through
  :mod:`repro.yieldsim`).
"""

from .constraints import (LinearConstraints, UnconstrainedRegion,
                          linearize_constraints, true_feasible, violation)
from .coordinate_search import CoordinateSearchResult, coordinate_search
from .estimator import CoordinateMaximum, LinearizedYieldEstimator
from .feasible_point import find_feasible_point
from .line_search import LineSearchResult, feasibility_line_search
from .linear_model import SpecLinearModel, build_spec_models, detect_quadratic
from .mismatch import (PairMismatch, analyze_mismatch, eta_weight,
                       mismatch_measure, phi_window, rank_matching_pairs)
from .optimizer import (IterationRecord, OptimizationResult, OptimizerConfig,
                        YieldOptimizer)
from .wcd_report import (SpecYield, WcdYieldReport, partial_yield,
                         wcd_yield_report)
from .worst_case import (WorstCaseResult, find_all_worst_case_points,
                         find_worst_case_point)

__all__ = [
    "CoordinateMaximum", "CoordinateSearchResult", "IterationRecord",
    "LinearConstraints", "LinearizedYieldEstimator", "LineSearchResult",
    "OptimizationResult", "OptimizerConfig", "PairMismatch",
    "SpecLinearModel", "UnconstrainedRegion",
    "WorstCaseResult", "YieldOptimizer", "analyze_mismatch",
    "build_spec_models", "coordinate_search", "detect_quadratic",
    "eta_weight", "feasibility_line_search", "find_all_worst_case_points",
    "find_feasible_point", "find_worst_case_point", "linearize_constraints",
    "mismatch_measure", "partial_yield", "phi_window",
    "rank_matching_pairs", "true_feasible", "violation",
    "SpecYield", "WcdYieldReport", "wcd_yield_report",
]
