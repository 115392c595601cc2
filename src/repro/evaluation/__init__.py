"""Evaluation layer: templates, counted evaluator, testbenches, gradients,
and PVT corner analysis."""

from .corners import CornerObservation, CornerReport, corner_analysis
from .evaluator import Evaluator
from .gradient import (all_gradients_d, all_gradients_s, constraint_jacobian,
                       performance_gradient_d, performance_gradient_s)
from .measure import OpenLoopOpampBench, add_openloop_bench
from .template import CircuitTemplate, DesignParameter

__all__ = ["CircuitTemplate", "CornerObservation", "CornerReport",
           "DesignParameter", "Evaluator", "corner_analysis",
           "OpenLoopOpampBench", "add_openloop_bench",
           "all_gradients_d", "all_gradients_s", "constraint_jacobian",
           "performance_gradient_d", "performance_gradient_s"]
