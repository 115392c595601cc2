"""Quickstart: estimate and understand the yield of an opamp in ~a minute.

Loads the Miller opamp benchmark (Fig. 8 of the paper), finds the
worst-case operating corner of every spec, computes worst-case distances
(Eq. 8), builds the spec-wise linearized yield estimate (Eq. 16-18) and
compares it against a real Monte-Carlo run (Eq. 6-7).

Run:  python examples/quickstart.py
"""

from repro.circuits import MillerOpamp
from repro.core import (LinearizedYieldEstimator, build_spec_models,
                        find_all_worst_case_points)
from repro.evaluation import Evaluator
from repro.spec.operating import find_worst_case_operating_points
from repro.statistics import SampleSet
from repro.yieldsim import OperationalMC


def main() -> None:
    template = MillerOpamp()
    evaluator = Evaluator(template)
    d = template.initial_design()
    s0 = template.statistical_space.nominal()

    print("=== Miller opamp, initial design ===")
    nominal = evaluator.evaluate(d, s0, template.operating_range.nominal())
    for performance in template.performances:
        spec = template.spec_for(performance.name)
        value = nominal[performance.name]
        print(f"  {performance.name:>6} = {value:8.2f} {performance.unit:5}"
              f" (spec {spec.kind} {spec.bound:g})")

    print("\n=== Worst-case operating corners (Eq. 2) ===")
    theta_wc = find_worst_case_operating_points(
        lambda theta: evaluator.evaluate(d, s0, theta),
        template.specs, template.operating_range)
    for key, theta in theta_wc.items():
        print(f"  {key:>8} -> {theta}")

    print("\n=== Worst-case distances (Eq. 8) ===")
    worst_case = find_all_worst_case_points(evaluator, d, theta_wc, seed=1)
    for key, wc in worst_case.items():
        status = "OK" if wc.beta_wc > 3 else (
            "VIOLATED" if wc.beta_wc < 0 else "marginal")
        print(f"  {key:>8}: beta_wc = {wc.beta_wc:+6.2f} sigma  [{status}]")

    print("\n=== Yield: spec-wise linearized estimate vs Monte Carlo ===")
    models = build_spec_models(evaluator, d, worst_case, theta_wc)
    samples = SampleSet.draw(10000, template.statistical_space.dim, seed=1)
    estimator = LinearizedYieldEstimator(models, samples)
    y_linear = estimator.yield_estimate(d)
    print(f"  Y_bar   (10,000 samples on the linear models, 0 extra "
          f"simulations) = {y_linear * 100:.1f}%")
    mc = OperationalMC().estimate(evaluator, d, theta_wc, n_samples=200,
                                  seed=7)
    print(f"  Y_tilde (200-sample simulation-based Monte Carlo)"
          f"            = {mc.estimate * 100:.1f}%"
          f"  (95% CI {mc.ci_low * 100:.1f}-{mc.ci_high * 100:.1f}%)")
    print(f"\n  bad samples per spec (linear models, permille):")
    for key, fraction in estimator.bad_samples_per_spec(d).items():
        print(f"    {key:>8}: {fraction * 1000:6.1f}")
    print(f"\n  total circuit simulations used: "
          f"{evaluator.simulation_count}")


if __name__ == "__main__":
    main()
