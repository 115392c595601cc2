"""repro — reproduction of Schenkel et al., DAC 2001.

"Mismatch Analysis and Direct Yield Optimization by Spec-Wise Linearization
and Feasibility-Guided Search."

Subpackages:

* ``repro.circuit``    — the MNA circuit simulator substrate,
* ``repro.pdk``        — the synthetic CMOS process kit,
* ``repro.statistics`` — distributions, Pelgrom mismatch, the C(d)/G(d)
  variance transform of Sec. 4,
* ``repro.spec``       — performance specifications and operating ranges,
* ``repro.evaluation`` — testbenches and the counted performance evaluator,
* ``repro.core``       — worst-case points (Eq. 8), the mismatch measure
  (Eq. 9), spec-wise linearization (Eq. 16), the linearized Monte-Carlo
  yield estimator (Eq. 17-20) and the feasibility-guided yield optimizer
  (Fig. 6),
* ``repro.circuits``   — the paper's benchmark circuits (folded-cascode and
  Miller opamps),
* ``repro.yieldsim``   — pluggable yield estimators (MC / IS / QMC) and
  the parallel batch executor,
* ``repro.runtime``    — fault-tolerant optimization runtime: fault
  policies, retry-with-jitter, budgets, checkpoint/resume, fault
  injection,
* ``repro.reporting``  — paper-style result tables.

Quickstart::

    from repro.circuits import MillerOpamp
    from repro.core import YieldOptimizer, OptimizerConfig

    result = YieldOptimizer(MillerOpamp(),
                            OptimizerConfig(max_iterations=3)).run()
    print(result.final.yield_mc)
"""

__version__ = "1.0.0"

from . import (circuit, circuits, core, counters, errors, evaluation, pdk,
               reporting, runtime, spec, statistics, units, yieldsim)

__all__ = ["circuit", "circuits", "core", "counters", "errors", "evaluation",
           "pdk", "reporting", "runtime", "spec", "statistics", "units",
           "yieldsim", "__version__"]
