"""Micro-benchmarks of the computational kernels.

These time the hot paths that determine the wall-clock column of Table 7:
one full testbench evaluation (DC + AC measurements), a raw DC solve, an
assembled-system AC point, the zero-simulation linearized yield estimate
(Eq. 17-20) and the exact coordinate maximization (Eq. 19 inner problem).
"""

import numpy as np

from repro.circuit import Circuit, solve_dc
from repro.circuit.ac import AcSystem
from repro.circuits import FoldedCascodeOpamp, MillerOpamp
from repro.core.estimator import LinearizedYieldEstimator
from repro.core.linear_model import SpecLinearModel
from repro.evaluation import Evaluator
from repro.pdk.generic035 import NMOS
from repro.spec import Spec
from repro.statistics import SampleSet


def test_bench_full_miller_evaluation(benchmark):
    template = MillerOpamp()
    evaluator = Evaluator(template)
    d = template.initial_design()
    theta = template.operating_range.nominal()
    rng = np.random.default_rng(0)
    dim = template.statistical_space.dim
    # Warm up at the nominal point, which the timed draws never hit.
    evaluator.evaluate(d, template.statistical_space.nominal(), theta)

    def evaluate():
        return evaluator.evaluate(d, rng.standard_normal(dim), theta)

    result = benchmark(evaluate)
    assert "a0" in result


def test_bench_full_folded_cascode_evaluation(benchmark):
    template = FoldedCascodeOpamp()
    evaluator = Evaluator(template)
    d = template.initial_design()
    theta = template.operating_range.nominal()
    rng = np.random.default_rng(0)
    dim = template.statistical_space.dim
    # Warm up at the nominal point, which the timed draws never hit.
    evaluator.evaluate(d, template.statistical_space.nominal(), theta)

    def evaluate():
        return evaluator.evaluate(d, rng.standard_normal(dim), theta)

    result = benchmark(evaluate)
    assert "cmrr" in result


def _cs_stage():
    circuit = Circuit("cs")
    circuit.vsource("VDD", "vdd", "0", dc=3.3)
    circuit.vsource("VG", "g", "0", dc=0.9, ac=1.0)
    circuit.resistor("RD", "vdd", "d", 10e3)
    circuit.capacitor("CL", "d", "0", 1e-12)
    circuit.mosfet("M1", "d", "g", "0", "0", NMOS, w=10e-6, l=1e-6)
    return circuit


def test_bench_dc_solve(benchmark):
    circuit = _cs_stage()

    def solve():
        return solve_dc(circuit)

    result = benchmark(solve)
    assert result.op("M1")["region"] == "saturation"


def test_bench_ac_point_on_assembled_system(benchmark):
    circuit = _cs_stage()
    op = solve_dc(circuit)
    system = AcSystem(circuit, op)

    def solve_point():
        return system.transfer("d", 1e6)

    value = benchmark(solve_point)
    assert abs(value) > 0


def _estimator(n_models=6, dim=27, n_samples=10000):
    rng = np.random.default_rng(1)
    models = []
    for i in range(n_models):
        models.append(SpecLinearModel(
            spec=Spec(f"f{i}", ">=", 0.0), key=f"f{i}>=",
            theta={"temp": 27.0}, s_ref=rng.standard_normal(dim),
            g_ref=float(rng.uniform(0, 1)),
            grad_s=rng.standard_normal(dim),
            grad_d={f"d{k}": float(rng.standard_normal())
                    for k in range(10)},
            d_ref={f"d{k}": 1.0 for k in range(10)}))
    samples = SampleSet.draw(n_samples, dim, seed=2)
    return LinearizedYieldEstimator(models, samples)


def test_bench_yield_estimate_10000_samples(benchmark):
    estimator = _estimator()
    d = {f"d{k}": 1.1 for k in range(10)}
    value = benchmark(estimator.yield_estimate, d)
    assert 0.0 <= value <= 1.0


def test_bench_exact_coordinate_maximization(benchmark):
    estimator = _estimator()
    d = {f"d{k}": 1.0 for k in range(10)}
    result = benchmark(estimator.maximize_coordinate, d, "d3", 0.5, 1.5)
    assert 0.0 <= result.yield_estimate <= 1.0
