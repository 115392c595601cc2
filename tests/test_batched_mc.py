"""Parity tests of the sample-batched Monte-Carlo engine.

The batched engine's contract (see ``repro.circuit.batch``) is *bitwise*
parity: evaluating a set of statistical rows through the vectorized
lockstep path must produce exactly the values, warm-cache counters and
fault classification of the scalar per-sample loop.  These tests compare
the two paths sample for sample on every shipped template (dense and
sparse backends), under Hypothesis-driven random rows, with injected
template faults, and through the executor and the estimator, where the
operational Monte-Carlo must give the scalar loop's answer batched and
pooled, warm and cold.  The scalar loop is reached the way production
reaches it: through an evaluation stack the batched engine cannot
unwrap (a zero-rate fault injector), or through the template base
class's ``evaluate_batch``.
"""

import contextlib
import gc
import logging
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import LinearTemplate
import repro.circuit.batch as batch_module
import repro.circuit.dc as dc_module
import repro.circuits.base as base_module
import repro.evaluation.measure as measure_module
from repro.circuit.batch import (BatchUnsupported, PROBE_RESISTANCE_FACTOR,
                                 probe_maps)
from repro.circuit.dc import (CONVERGED, GMIN_FINAL, SOURCE_SCALES,
                              device_stage, gmin_schedule, newton_stage,
                              solve_dc)
from repro.circuit.linsolve import resolve_backend
from repro.circuits import CIRCUITS
from repro.circuits.base import (DEAD_CIRCUIT_PERFORMANCES,
                                 DEFAULT_BATCH_SAMPLES, OpampTemplate,
                                 _ProbeGlobals)
from repro.circuits.miller import MillerOpamp
from repro.errors import ConvergenceError, ReproError
from repro.evaluation import Evaluator
from repro.evaluation.gradient import STEP_S, performance_gradient_s
from repro.evaluation.template import CircuitTemplate
from repro.runtime import (FaultInjectingEvaluator, FaultPolicy,
                           FaultTolerantEvaluator)
from repro.runtime.policy import FaultAction
from repro.spec.operating import find_worst_case_operating_points
from repro.yieldsim import BatchExecutor, make_estimator

DENSE_TEMPLATES = ["miller", "folded-cascode", "ota"]


def _rows(template, n, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(template.statistical_space.dim)
            for _ in range(n)]


def _serial_entries(template, d, rows, theta):
    """Reference: the scalar per-sample loop of the template base class."""
    return CircuitTemplate.evaluate_batch(template, d, rows, theta)


def _stack(evaluator, scalar):
    """``evaluator``, or for ``scalar`` the same evaluator under a
    zero-rate fault injector: a stack the batched engine cannot unwrap,
    so every sample takes the scalar per-sample loop."""
    return FaultInjectingEvaluator(evaluator) if scalar else evaluator


def _assert_entries_match(serial, batched):
    assert len(serial) == len(batched)
    for j, (a, b) in enumerate(zip(serial, batched)):
        if isinstance(a, BaseException):
            assert isinstance(b, BaseException), f"row {j}"
            assert type(a) is type(b), f"row {j}"
            assert str(a) == str(b), f"row {j}"
            continue
        assert not isinstance(b, BaseException), f"row {j}: {b!r}"
        assert set(a) == set(b), f"row {j}"
        for key in a:
            assert a[key] == b[key], \
                f"row {j} {key}: serial {a[key]!r} != batched {b[key]!r}"


def _parity_case(name, n, seed, linsolve="auto"):
    """Run serial and batched paths on fresh template instances and
    assert value + warm-cache-counter parity."""
    t_serial = CIRCUITS[name]()
    t_batched = CIRCUITS[name]()
    t_serial.linsolve = t_batched.linsolve = linsolve
    d = t_serial.initial_design()
    theta = t_serial.operating_range.nominal()
    rows = _rows(t_serial, n, seed)
    serial = _serial_entries(t_serial, d, rows, theta)
    batched = t_batched.evaluate_batch(d, rows, theta)
    _assert_entries_match(serial, batched)
    assert t_serial.warm_cache_stats() == t_batched.warm_cache_stats()


class TestBitwiseParity:
    @pytest.mark.parametrize("name", DENSE_TEMPLATES)
    def test_dense_templates(self, name):
        _parity_case(name, n=5, seed=11)

    def test_two_stage_array_sparse_backend(self):
        _parity_case("two-stage-array", n=4, seed=3)

    @pytest.mark.parametrize("name", DENSE_TEMPLATES)
    def test_dense_templates_forced_sparse(self, name):
        # VCVS and inductor branch columns in the reused SuperLU ordering
        _parity_case(name, n=5, seed=11, linsolve="sparse")

    def test_chunking_does_not_change_results(self, monkeypatch):
        t_a = CIRCUITS["miller"]()
        t_b = CIRCUITS["miller"]()
        d = t_a.initial_design()
        theta = t_a.operating_range.nominal()
        rows = _rows(t_a, 5, 29)
        whole = t_a.evaluate_batch(d, rows, theta)
        monkeypatch.setattr(base_module, "DEFAULT_BATCH_SAMPLES", 2)
        chunked = t_b.evaluate_batch(d, rows, theta)
        _assert_entries_match(whole, chunked)
        assert t_a.warm_cache_stats() == t_b.warm_cache_stats()


class TestParityProperty:
    @pytest.mark.parametrize("name", DENSE_TEMPLATES)
    @given(seed=st.integers(0, 2 ** 20), n=st.integers(2, 4))
    @settings(max_examples=4, deadline=None)
    def test_dense_random_rows(self, name, seed, n):
        _parity_case(name, n=n, seed=seed)

    @given(seed=st.integers(0, 2 ** 20))
    @settings(max_examples=2, deadline=None)
    def test_sparse_random_rows(self, seed):
        _parity_case("two-stage-array", n=3, seed=seed)

    @pytest.mark.parametrize("name", DENSE_TEMPLATES)
    @given(seed=st.integers(0, 2 ** 20), n=st.integers(2, 4))
    @settings(max_examples=2, deadline=None)
    def test_forced_sparse_random_rows(self, name, seed, n):
        _parity_case(name, n=n, seed=seed, linsolve="sparse")


class _FaultyMiller(MillerOpamp):
    """Miller template with deterministic per-sample injected faults.

    The trigger is a function of the extracted (bitwise-identical)
    values, so the serial and batched paths must fault on exactly the
    same rows: a ``ConvergenceError`` (an ``AnalysisError`` — mapped to
    dead-circuit sentinels by the template, RETRY by the fault policy)
    above ``analysis_above``, a ``RuntimeError`` (propagates as an
    entry) below ``hard_below``.
    """

    def __init__(self, analysis_above=float("inf"),
                 hard_below=float("-inf")):
        super().__init__()
        self.analysis_above = analysis_above
        self.hard_below = hard_below

    def extract(self, bench, d, theta, performances=None):
        values = super().extract(bench, d, theta, performances)
        a0 = bench.a0_db()  # the trigger, whatever the request measures
        if a0 > self.analysis_above:
            raise ConvergenceError(f"injected analysis fault at a0={a0!r}")
        if a0 < self.hard_below:
            raise RuntimeError(f"injected hard fault at a0={a0!r}")
        return values


class TestFaultClassificationParity:
    def test_injected_faults_classify_identically(self):
        t_serial = _FaultyMiller(analysis_above=88.4, hard_below=87.2)
        t_batched = _FaultyMiller(analysis_above=88.4, hard_below=87.2)
        d = t_serial.initial_design()
        theta = t_serial.operating_range.nominal()
        rows = _rows(t_serial, 8, 11)
        serial = _serial_entries(t_serial, d, rows, theta)
        batched = t_batched.evaluate_batch(d, rows, theta)
        # The chosen thresholds must actually exercise both fault kinds.
        assert any(isinstance(e, RuntimeError) for e in serial)
        assert any(isinstance(e, dict) and e["a0"] == -40.0
                   for e in serial)
        _assert_entries_match(serial, batched)
        assert t_serial.warm_cache_stats() == t_batched.warm_cache_stats()

    def test_fault_tolerant_stack_counter_parity(self):
        """The executor resumes batched first-attempt failures through
        FaultTolerantEvaluator.resume_after_failure: values, policy
        counters and evaluator counters must all match the scalar
        stack."""
        def run(scalar):
            template = _FaultyMiller(hard_below=87.5)
            guarded = FaultTolerantEvaluator(
                _stack(Evaluator(template), scalar),
                FaultPolicy(actions={RuntimeError: FaultAction.RETRY}),
                fail_mode="nan")
            d = template.initial_design()
            theta = template.operating_range.nominal()
            matrix = np.stack(_rows(template, 8, 11))
            outcome = BatchExecutor().run(guarded, d, [theta], matrix)
            return (outcome.values, outcome.simulations, outcome.requests,
                    guarded.failed_evaluations, guarded.retried_evaluations,
                    guarded.recovered_evaluations,
                    template.warm_cache_stats())

        scalar = run(True)
        batched = run(False)
        assert scalar[1:] == batched[1:]
        # fail_mode="nan" rows need NaN-aware equality (NaN != NaN).
        for row_a, row_b in zip(scalar[0], batched[0]):
            for cell_a, cell_b in zip(row_a, row_b):
                assert set(cell_a) == set(cell_b)
                for key in cell_a:
                    x, y = cell_a[key], cell_b[key]
                    assert x == y or (math.isnan(x) and math.isnan(y)), \
                        f"{key}: {x!r} != {y!r}"
        assert batched[4] > 0  # the injected faults were actually retried


def _count_searches(monkeypatch):
    """Count the measurement layer's warm-bracket and full-sweep
    unity-gain searches (both paths run them, one per measured row)."""
    calls = {"warm": 0, "sweep": 0}
    warm, sweep = measure_module.warm_unity_crossing, \
        measure_module.unity_gain_frequency

    def counting(kind, fn):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(measure_module, "warm_unity_crossing",
                        counting("warm", warm))
    monkeypatch.setattr(measure_module, "unity_gain_frequency",
                        counting("sweep", sweep))
    return calls


class _RecordingMiller(MillerOpamp):
    """Miller template that records what ``extract`` raised."""

    def __init__(self):
        super().__init__()
        self.raised = []

    def extract(self, bench, d, theta, performances=None):
        try:
            return super().extract(bench, d, theta, performances)
        except Exception as exc:
            self.raised.append(exc)
            raise


def _tamper_ac_row(monkeypatch, row, tamper):
    """Apply ``tamper(engine, plan)`` to the AC engine of carried chunk
    sample ``row`` of every chunk the batched path measures (in place,
    so both drives of the row see it)."""
    ac_systems = batch_module._RowDCResult.ac_systems

    def tampered(self):
        systems = ac_systems(self)
        if self._fin["rows"][self._i] == row:
            tamper(systems[(0.5, -0.5)]._engine, self._plan)
        return systems

    monkeypatch.setattr(batch_module._RowDCResult, "ac_systems", tampered)


def _zero_matrix(engine, plan):
    if plan.sparse:
        engine._g_full[...] = 0.0
        engine._b_full[...] = 0.0
    else:
        engine._g[...] = 0.0
        engine._b[...] = 0.0


def _ground_output(engine, plan):
    """Cut the output out of the system — ``v(out) = 0`` and no other
    equation reads it — so both gains are exactly 0."""
    out = plan.layout.node_index["out"]
    if plan.sparse:
        pattern = engine._pattern
        cols = np.repeat(np.arange(pattern.size), np.diff(pattern.indptr))
        cut = (pattern.indices == out) | (cols == out)
        engine._g_full[cut] = 0.0
        engine._g_full[(pattern.indices == out) & (cols == out)] = 1.0
        engine._b_full[cut] = 0.0
    else:
        for m in (engine._g, engine._b):
            m[out, :] = 0.0
            m[:, out] = 0.0
        engine._g[out, out] = 1.0


class TestRowMeasurementBranches:
    """Every branch of the batched rows' measurement against the scalar
    loop (the ``_FaultyMiller`` cases cover a row raising inside
    ``extract``)."""

    def test_warm_bracket_misses_fall_back_to_the_sweep(self, monkeypatch):
        # A 5 % bracket around the anchor's f_t: the rows whose crossing
        # moved further miss it and run the full sweep.
        monkeypatch.setattr(measure_module, "WARM_FT_SPAN", 1.05)
        calls = _count_searches(monkeypatch)
        _parity_case("miller", n=8, seed=11)
        # Per path: one warm search per row; one sweep for the
        # template's anchor and one per row that missed its bracket
        # (hits and misses both occur).
        assert calls["warm"] == 2 * 8
        misses, odd = divmod(calls["sweep"] - 2, 2)
        assert odd == 0 and 0 < misses < 8

    def test_unhinted_rows_run_the_sweep(self, monkeypatch):
        calls = _count_searches(monkeypatch)
        _cold_parity_case("miller", n=6, seed=5)
        assert calls == {"warm": 0, "sweep": 2 * 6}

    @pytest.mark.parametrize("linsolve", ["dense", "sparse"])
    def test_gain_at_most_one_gives_no_transit_frequency(self, monkeypatch,
                                                         linsolve):
        # Measure the "DC" gain at the nominal transit frequency: rows
        # whose f_t fell below it see |A_dm| <= 1 and report f_t = 0.
        t = CIRCUITS["miller"]()
        nominal = t.evaluate(t.initial_design(),
                             t.statistical_space.nominal(),
                             t.operating_range.nominal())
        monkeypatch.setattr(measure_module, "GAIN_MEASURE_HZ",
                            nominal["ft"] * 1e6)
        t_serial, t_batched = CIRCUITS["miller"](), CIRCUITS["miller"]()
        t_serial.linsolve = t_batched.linsolve = linsolve
        d = t.initial_design()
        theta = t.operating_range.nominal()
        rows = _rows(t, 8, 11)
        serial = _serial_entries(t_serial, d, rows, theta)
        _assert_entries_match(serial,
                              t_batched.evaluate_batch(d, rows, theta))
        ft = [entry["ft"] for entry in serial]
        assert 0.0 in ft and any(f > 0.0 for f in ft)

    @pytest.mark.parametrize("linsolve", ["dense", "sparse"])
    @pytest.mark.parametrize("tamper, error", [
        (_zero_matrix, "SingularMatrixError"),
        (_ground_output, "ExtractionError")])
    def test_one_bad_row_gets_its_sentinel(self, monkeypatch, linsolve,
                                           tamper, error):
        """A singular AC matrix (every solve of the row fails) or a zero
        differential gain in one row of a chunk: that row reports the
        dead-circuit sentinels, every other row the scalar loop's
        values."""
        t_serial, t_batched = MillerOpamp(), _RecordingMiller()
        t_serial.linsolve = t_batched.linsolve = linsolve
        d = t_serial.initial_design()
        theta = t_serial.operating_range.nominal()
        rows = _rows(t_serial, 5, 7)
        serial = _serial_entries(t_serial, d, rows, theta)
        _tamper_ac_row(monkeypatch, 1, tamper)
        batched = t_batched.evaluate_batch(d, rows, theta)
        assert [type(exc).__name__ for exc in t_batched.raised] == [error]
        dead = {p.name: DEAD_CIRCUIT_PERFORMANCES[p.name]
                for p in t_serial.performances}
        assert batched[1] == dead != serial[1]
        _assert_entries_match(serial[:1] + serial[2:],
                              batched[:1] + batched[2:])


class TestRowMeasurementMemory:
    """What the batched rows' measurement keeps alive: nothing after it
    is done (no reference cycles, even through caught exceptions), and
    one row's systems — and factorizations — at a time."""

    @pytest.mark.parametrize("linsolve", ["dense", "sparse"])
    def test_no_reference_cycles(self, monkeypatch, linsolve):
        # Warm-bracket misses make the searches raise and catch.
        monkeypatch.setattr(measure_module, "WARM_FT_SPAN", 1.05)
        t = CIRCUITS["miller"]()
        t.linsolve = linsolve
        d = t.initial_design()
        theta = t.operating_range.nominal()
        rows = _rows(t, 8, 11)
        t.evaluate_batch(d, rows[:2], theta)  # anchors
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            t.evaluate_batch(d, rows, theta)
            t.evaluate(d, rows[0], theta)
            gc.collect()
            garbage = [type(o).__name__ for o in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert garbage == []

    def test_rows_are_released_one_by_one(self, monkeypatch):
        """When a row's systems are assembled, no earlier row's are
        still alive: they are assembled on the row's first AC
        measurement, after the previous row's bench was dropped."""
        alive_at_assembly = []
        refs = []
        ac_systems = batch_module._RowDCResult.ac_systems

        def spy(self):
            alive_at_assembly.append(sum(r() is not None for r in refs))
            systems = ac_systems(self)
            refs.append(weakref.ref(systems[(0.5, -0.5)]._engine))
            return systems

        monkeypatch.setattr(batch_module._RowDCResult, "ac_systems", spy)
        _parity_case("miller", n=5, seed=11, linsolve="sparse")
        assert alive_at_assembly == [0, 0, 0, 0, 0]
        assert all(r() is None for r in refs)


class _GlobalsReadingMiller(MillerOpamp):
    """A builder that reaches into ``pv.global_values`` directly — the
    batched engine cannot see such a dependency, so the probe build must
    reject it and route every evaluation through the scalar loop."""

    def build(self, d, pv, theta):
        self.seen_globals = dict(pv.global_values)
        return super().build(d, pv, theta)


class TestProbeVerification:
    def test_globals_reading_builder_falls_back_to_serial(self):
        t_plain = MillerOpamp()
        t_reader = _GlobalsReadingMiller()
        d = t_reader.initial_design()
        theta = t_reader.operating_range.nominal()
        with pytest.raises(BatchUnsupported):
            t_reader._batch_plan(d, theta)
        rows = _rows(t_reader, 3, 7)
        _assert_entries_match(
            _serial_entries(t_plain, d, rows, theta),
            t_reader.evaluate_batch(d, rows, theta))

    def test_rejected_plan_is_logged_and_probes_stay_exact(self, caplog):
        """Both batched fan-outs of the optimizer loop (gradient probes,
        anchor slopes) fall back to serial on a rejected plan — with a
        DEBUG record naming the template and the reason — and produce
        exactly the plain template's gradients and slopes."""
        def run(template):
            evaluator = Evaluator(template)
            d = template.initial_design()
            theta = template.operating_range.nominal()
            s_hat = np.zeros(template.statistical_space.dim)
            gradient = performance_gradient_s(evaluator, "a0", d, s_hat,
                                              theta)
            x, slopes, _ = template._warm_anchor(d, theta)
            return (gradient.tobytes(), x.tobytes(), slopes.tobytes(),
                    template.dc_effort_stats())

        with caplog.at_level(logging.DEBUG, logger="repro"):
            reader = run(_GlobalsReadingMiller())
        rejected = [r for r in caplog.records
                    if r.name.startswith("repro")
                    and "plan rejected" in r.getMessage()]
        assert rejected
        assert all(r.levelno == logging.DEBUG for r in rejected)
        message = rejected[0].getMessage()
        assert "miller" in message and "pv.global_values" in message
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="repro"):
            plain = run(MillerOpamp())
        assert not [r for r in caplog.records
                    if "plan rejected" in r.getMessage()]
        assert reader == plain

    def test_probe_globals_refuse_every_read(self):
        probe = _ProbeGlobals()
        with pytest.raises(BatchUnsupported):
            probe["vth_nmos"]
        with pytest.raises(BatchUnsupported):
            probe.get("vth_nmos")
        with pytest.raises(BatchUnsupported):
            list(probe.items())

    def test_probe_maps_are_distinct_per_device(self):
        t = MillerOpamp()
        d = t.initial_design()
        space = t.statistical_space
        proto = t.build(d, space.to_physical(d, space.nominal()),
                        t.operating_range.nominal())
        dvto, beta = probe_maps(proto)
        assert len(dvto) == len(set(dvto.values()))
        assert len(beta) == len(set(beta.values()))
        assert PROBE_RESISTANCE_FACTOR == 2.0  # exact in binary floats


class TestExecutorWiring:
    def test_default_chunk_is_documented_size(self):
        assert DEFAULT_BATCH_SAMPLES == 32

    def test_analytic_template_unaffected(self):
        """Templates without a batched engine run the plain loop on
        either stack."""
        d = {"d0": 1.0, "d1": 0.0}
        theta = {"temp": 27.0}
        matrix = np.random.default_rng(3).standard_normal((6, 2))
        a, b = (BatchExecutor().run(
            _stack(Evaluator(LinearTemplate(offset=0.0)), scalar), d,
            [theta], matrix) for scalar in (True, False))
        assert a.values == b.values
        assert a.backend == b.backend == "serial"


def _cold_parity_case(name, n, seed, linsolve="auto"):
    """Like ``_parity_case`` with warm anchors disabled on both paths:
    every sample enters the homotopy chain at the cold Newton stage, and
    the per-strategy DC effort counters must also agree."""
    t_serial = CIRCUITS[name]()
    t_batched = CIRCUITS[name]()
    t_serial.warm_dc = False
    t_batched.warm_dc = False
    t_serial.linsolve = t_batched.linsolve = linsolve
    d = t_serial.initial_design()
    theta = t_serial.operating_range.nominal()
    rows = _rows(t_serial, n, seed)
    serial = _serial_entries(t_serial, d, rows, theta)
    batched = t_batched.evaluate_batch(d, rows, theta)
    _assert_entries_match(serial, batched)
    assert t_serial.dc_effort_stats() == t_batched.dc_effort_stats()


def _patch_iteration_caps(monkeypatch, cap):
    """Shrink the per-stage Newton budget of the shared DC driver (one
    module serves the scalar and the batched solver)."""
    monkeypatch.setattr(dc_module, "MAX_ITERATIONS", cap)


def _cold_fixture(name, n, seed):
    """A loaded batch plan plus the matching per-sample serial circuits
    (devices prepared), for driving the homotopy kernels directly."""
    t = CIRCUITS[name]()
    d = t.initial_design()
    theta = t.operating_range.nominal()
    plan = t._batch_plan(d, theta)
    rows = _rows(t, n, seed)
    pvs = [t.statistical_space.to_physical(d, r) for r in rows]
    plan.set_samples(pvs)
    circuits = [t.build(d, pv, theta) for pv in pvs]
    for c in circuits:
        for dev in c.devices:
            dev.prepare(theta["temp"])
    return t, plan, circuits, theta


class TestColdChainParity:
    @pytest.mark.parametrize("name", DENSE_TEMPLATES)
    def test_dense_templates_cold(self, name):
        _cold_parity_case(name, n=5, seed=11)

    def test_two_stage_array_sparse_cold(self):
        _cold_parity_case("two-stage-array", n=4, seed=3)

    @pytest.mark.parametrize("name", DENSE_TEMPLATES)
    def test_dense_templates_forced_sparse_cold(self, name):
        _cold_parity_case(name, n=5, seed=11, linsolve="sparse")

    @pytest.mark.parametrize("name", DENSE_TEMPLATES)
    @given(seed=st.integers(0, 2 ** 20))
    @settings(max_examples=2, deadline=None)
    def test_dense_random_rows_cold(self, name, seed):
        _cold_parity_case(name, n=3, seed=seed)

    @given(seed=st.integers(0, 2 ** 20))
    @settings(max_examples=2, deadline=None)
    def test_sparse_random_rows_cold(self, seed):
        _cold_parity_case("two-stage-array", n=3, seed=seed)


def _substage_parity(plan, circuits, t, points):
    """Run the batched kernel and each sample's device-stamp kernel
    through the same Newton stage at every ``(gmin, scale)`` point,
    carrying ``x`` across points, and assert bitwise states and exact
    per-sub-stage iteration counts."""
    rows = np.arange(len(circuits), dtype=np.intp)
    nv = plan.layout.n_nodes
    xb = np.zeros((len(circuits), plan.layout.size))
    backend = resolve_backend(t.linsolve, nv)
    stages = [device_stage(c, c.layout(), backend) for c in circuits]
    xs = [np.zeros((1, c.layout().size)) for c in circuits]
    for gmin, scale in points:
        xb, its, out = newton_stage(plan._stage, rows, xb, nv, gmin, scale)
        assert np.all(out == CONVERGED)
        for k, stage in enumerate(stages):
            xs[k], ref_iters, ref_out = newton_stage(
                stage, rows[:1], xs[k], nv, gmin, scale)
            assert ref_out[0] == CONVERGED
            assert its[k] == ref_iters[0], f"{gmin:g}/{scale} sample {k}"
            assert np.array_equal(xb[k], xs[k][0]), \
                f"{gmin:g}/{scale} sample {k}"


class TestLockstepColdKernels:
    """Drive ``SampleBatchPlan.solve`` and its stage kernel directly
    against the serial solver, asserting bitwise solutions, matching
    strategy labels and exact per-(sub)stage iteration counts."""

    def test_cold_solve_matches_solve_dc_bitwise(self):
        t, plan, circuits, theta = _cold_fixture("miller", n=6, seed=13)
        x, iters, ok, strategy = plan.solve(None)
        for k, c in enumerate(circuits):
            ref = solve_dc(c, temp_c=theta["temp"], backend=t.linsolve)
            assert ok[k]
            assert strategy[k] == ref.strategy
            assert iters[k] == ref.iterations
            assert np.array_equal(x[k], ref.x)

    def test_gmin_substage_iteration_parity(self):
        t, plan, circuits, theta = _cold_fixture("miller", n=3, seed=5)
        _substage_parity(plan, circuits, t,
                         [(gmin, None) for gmin in gmin_schedule()])

    def test_source_substage_iteration_parity(self):
        t, plan, circuits, theta = _cold_fixture("miller", n=3, seed=5)
        _substage_parity(plan, circuits, t,
                         [(GMIN_FINAL, scale) for scale in SOURCE_SCALES])

    @staticmethod
    def _capped_fixture(monkeypatch):
        # The folded-cascode nominal row needs 15 cold Newton iterations;
        # capping at 14 forces cold Newton to fail while every gmin
        # sub-stage still fits.
        _patch_iteration_caps(monkeypatch, 14)
        t, plan, circuits, theta = _cold_fixture("folded-cascode",
                                                 n=3, seed=7)
        nominal = t.statistical_space.nominal()
        pvs = [t.statistical_space.to_physical(t.initial_design(),
                                               nominal)]
        circuits.insert(0, t.build(t.initial_design(), pvs[0], theta))
        for dev in circuits[0].devices:
            dev.prepare(theta["temp"])
        plan.set_samples(
            [pvs[0]] + [t.statistical_space.to_physical(
                t.initial_design(), r) for r in _rows(t, 3, 7)])
        return t, plan, circuits, theta

    def test_capped_newton_routes_to_gmin_stepping(self, monkeypatch):
        # With Newton capped, the chain's second homotopy wins — on both
        # paths, with identical totals and bits.
        t, plan, circuits, theta = self._capped_fixture(monkeypatch)
        x, iters, ok, strategy = plan.solve(None)
        assert strategy[0] == "gmin-stepping"
        for k, c in enumerate(circuits):
            try:
                ref = solve_dc(c, temp_c=theta["temp"],
                               backend=t.linsolve)
            except ConvergenceError:
                # A random row may exhaust even the capped chain; the
                # batched path must hand exactly those rows back.
                assert not ok[k]
                assert strategy[k] is None
                continue
            assert ok[k]
            assert strategy[k] == ref.strategy
            assert iters[k] == ref.iterations
            assert np.array_equal(x[k], ref.x)

    def test_escalations_logged_on_both_paths(self, monkeypatch, caplog):
        # One DEBUG record per stage the rows leave: the batched chunk
        # logs the summed row counts of the per-sample scalar solves.
        t, plan, circuits, theta = self._capped_fixture(monkeypatch)
        caplog.set_level(logging.DEBUG, logger="repro.circuit.dc")

        def escalations():
            found = {}
            for record in caplog.records:
                if record.name == "repro.circuit.dc":
                    count, *labels = record.args
                    found[tuple(labels)] = found.get(tuple(labels), 0) \
                        + count
            caplog.clear()
            return found

        plan.solve(None)
        batched = escalations()
        scalar = {}
        for c in circuits:
            try:
                solve_dc(c, temp_c=theta["temp"], backend=t.linsolve)
            except ConvergenceError:
                pass
            for labels, count in escalations().items():
                scalar[labels] = scalar.get(labels, 0) + count
        assert batched[("newton", "gmin-stepping")] >= 1
        assert batched == scalar


class TestColdFaultClassificationParity:
    def test_exhausted_chain_classifies_identically(self, monkeypatch,
                                                    caplog):
        # A 2-iteration budget exhausts every homotopy stage: the serial
        # loop's ConvergenceError maps to the dead-circuit sentinel dict,
        # and the batched path must reproduce both the entries and the
        # "failed" effort counters exactly through its serial fallback.
        _patch_iteration_caps(monkeypatch, 2)
        t_serial = CIRCUITS["miller"]()
        t_batched = CIRCUITS["miller"]()
        t_serial.warm_dc = False
        t_batched.warm_dc = False
        d = t_serial.initial_design()
        theta = t_serial.operating_range.nominal()
        rows = _rows(t_serial, 6, 3)
        serial = _serial_entries(t_serial, d, rows, theta)
        with caplog.at_level(logging.DEBUG, logger="repro.circuits.base"):
            batched = t_batched.evaluate_batch(d, rows, theta)
        _assert_entries_match(serial, batched)
        # One record for the chunk, naming the count and the reason.
        dropped = [r.getMessage() for r in caplog.records
                   if "run serially" in r.getMessage()]
        assert dropped == ["miller: 6 of 6 chunk rows run serially "
                           "(singular matrix or exhausted chain: 6)"]
        stats = t_serial.dc_effort_stats()
        assert stats == t_batched.dc_effort_stats()
        assert stats["failed"] > 0
        from repro.circuits.base import DEAD_CIRCUIT_PERFORMANCES
        assert any(isinstance(e, dict)
                   and e["a0"] == DEAD_CIRCUIT_PERFORMANCES["a0"]
                   for e in serial)

    def test_failed_samples_accounting_scalar_vs_batched(self):
        """Estimator-level failed_samples parity on the cold path: rows
        whose evaluation faults under the nan fail-mode must be counted
        identically by the scalar and batched engines."""
        def run(scalar):
            template = _FaultyMiller(hard_below=87.5)
            template.warm_dc = False
            guarded = FaultTolerantEvaluator(
                _stack(Evaluator(template), scalar),
                FaultPolicy(actions={RuntimeError: FaultAction.RETRY}),
                fail_mode="nan")
            d = template.initial_design()
            s0 = template.statistical_space.nominal()
            theta_wc = find_worst_case_operating_points(
                lambda theta: guarded.evaluate(d, s0, theta),
                template.specs, template.operating_range)
            est = make_estimator("mc")
            with guarded.lenient():
                r = est.estimate(guarded, d, theta_wc, n_samples=16,
                                 seed=11)
            return (r.estimate, r.ci_low, r.ci_high, r.failed_samples,
                    r.report.failed_samples, dict(r.report.dc_effort),
                    template.dc_effort_stats())

        scalar = run(True)
        batched = run(False)
        assert scalar == batched
        assert batched[3] > 0  # the injected faults actually failed rows


#: the result fields every execution mode must reproduce exactly
MODE_FIELDS = ("estimate", "ci_low", "ci_high", "n_samples", "simulations",
               "bad_fraction", "performance_mean", "performance_std")


def _count_batch_calls(monkeypatch):
    """Count this process's calls of the batched template engine."""
    calls = []
    batched = OpampTemplate.evaluate_batch

    def counting(self, *args, **kwargs):
        calls.append(self)
        return batched(self, *args, **kwargs)

    monkeypatch.setattr(OpampTemplate, "evaluate_batch", counting)
    return calls


class TestEstimatorEndToEnd:
    """The operational Monte-Carlo gives the scalar loop's answer in every
    execution mode: the batched engine (one chunk, and chunks of 8 rows)
    and a two-worker pool, with warm anchors and from the cold chain.
    Each corner measures only the performances of its specs; a run that
    measures every performance at every corner agrees too."""

    @staticmethod
    def _estimate(mode, name, linsolve, warm_dc, tolerant, seed):
        template = CIRCUITS[name]()
        template.linsolve = linsolve
        template.warm_dc = warm_dc
        evaluator = _stack(Evaluator(template), mode == "scalar")
        if tolerant:
            evaluator = FaultTolerantEvaluator(evaluator, FaultPolicy())
        d = template.initial_design()
        s0 = template.statistical_space.nominal()
        theta_wc = find_worst_case_operating_points(
            lambda theta: evaluator.evaluate(d, s0, theta),
            template.specs, template.operating_range)
        estimator = make_estimator("mc", jobs=2 if mode == "pooled" else 1)
        with evaluator.lenient() if tolerant else contextlib.nullcontext():
            result = estimator.estimate(evaluator, d, theta_wc,
                                        n_samples=24, seed=seed)
        return result, template.warm_cache_stats()

    def _assert_modes_agree(self, monkeypatch, name, linsolve="auto",
                            warm_dc=True, tolerant=False, seed=3):
        case = dict(name=name, linsolve=linsolve, warm_dc=warm_dc,
                    tolerant=tolerant, seed=seed)
        calls = _count_batch_calls(monkeypatch)
        scalar, scalar_warm = self._estimate("scalar", **case)
        assert calls == []  # the scalar loop ran every sample
        assert sum(scalar.report.dc_effort.values()) > 0
        runs = {"batched": self._estimate("batched", **case)}
        assert calls  # the batched engine ran
        with monkeypatch.context() as patch:
            patch.setattr(base_module, "DEFAULT_BATCH_SAMPLES", 8)
            runs["chunked"] = self._estimate("chunked", **case)
        runs["pooled"] = self._estimate("pooled", **case)
        assert runs["pooled"][0].report.backend == "process-pool"
        with monkeypatch.context() as patch:
            run = BatchExecutor.run

            def every_performance(self, evaluator, d, thetas, matrix,
                                  performances=None):
                assert performances is not None  # the per-corner requests
                return run(self, evaluator, d, thetas, matrix)

            patch.setattr(BatchExecutor, "run", every_performance)
            runs["all-performances"] = self._estimate("batched", **case)
        for mode, (result, warm) in runs.items():
            for key in MODE_FIELDS:
                assert getattr(result, key) == getattr(scalar, key), \
                    f"{mode} {key}"
            assert result.report.dc_effort == scalar.report.dc_effort, mode
            assert result.report.cache_hits == scalar.report.cache_hits, mode
            if mode != "pooled":
                # Pool workers build their own anchors, so warm-cache
                # effort is compared in-process only.
                assert warm == scalar_warm, mode

    @pytest.mark.parametrize("warm_dc", [True, False], ids=["warm", "cold"])
    @pytest.mark.parametrize("name, linsolve", [
        ("ota", "auto"), ("miller", "auto"), ("folded-cascode", "sparse")])
    def test_execution_modes_agree(self, monkeypatch, name, linsolve,
                                   warm_dc):
        """ota measures noise, miller the phase margin, and the folded
        cascode on the sparse backend runs the learned SuperLU
        ordering."""
        self._assert_modes_agree(monkeypatch, name, linsolve=linsolve,
                                 warm_dc=warm_dc)

    def test_operational_mc_identical_scalar_vs_batched(self, monkeypatch):
        """The same check through a lenient fault-tolerant stack."""
        self._assert_modes_agree(monkeypatch, "miller", tolerant=True,
                                 seed=7)


ALL_TEMPLATES = DENSE_TEMPLATES + ["two-stage-array"]


def _looped_gradient_s(evaluator, performance, d, s_hat, theta,
                       base_value=None):
    """Reference: the explicit per-probe ``evaluate`` loop."""
    if base_value is None:
        base_value = evaluator.performance(performance, d, s_hat, theta)
    gradient = np.empty(len(s_hat))
    for k in range(len(s_hat)):
        probe = s_hat.copy()
        probe[k] += STEP_S
        gradient[k] = (evaluator.evaluate(d, probe, theta)[performance]
                       - base_value) / STEP_S
    return gradient


def _looped_slopes(template, d, theta, x):
    """Reference: one warm ``solve_dc`` per statistical axis."""
    space = template.statistical_space
    slopes = np.zeros((x.size, space.dim))
    for i in range(space.dim):
        e_i = np.zeros(space.dim)
        e_i[i] = 1.0
        circuit = template.build(d, space.to_physical(d, e_i), theta)
        try:
            x_i = solve_dc(circuit, temp_c=theta["temp"], x0=x,
                           backend=template.linsolve,
                           effort=template._dc_effort).x
        except ReproError:
            continue
        slopes[:, i] = x_i - x
    return slopes


def _nan_equal(a, b):
    return np.array_equal(a, b, equal_nan=True)


class TestBatchedGradientProbes:
    @pytest.mark.parametrize("name", ALL_TEMPLATES)
    def test_probes_match_the_scalar_loop(self, name):
        """At the nominal point and 6 sigma out on one axis, the batched
        probes give the loop's gradient bit for bit and leave identical
        evaluator, warm-cache and DC-effort counters."""
        def run(gradient_fn):
            template = CIRCUITS[name]()
            batches = []
            batched = template.evaluate_batch

            def spy(*args, **kwargs):
                batches.append(len(args[1]))
                return batched(*args, **kwargs)

            template.evaluate_batch = spy
            evaluator = Evaluator(template)
            d = template.initial_design()
            theta = template.operating_range.nominal()
            performance = template.specs[0].performance
            far = np.zeros(template.statistical_space.dim)
            far[0] = -6.0
            gradients = [gradient_fn(evaluator, performance, d, s_hat,
                                     theta).tobytes()
                         for s_hat in (np.zeros_like(far), far)]
            return (gradients,
                    (evaluator.simulation_count, evaluator.request_count,
                     evaluator.cache_hits, evaluator.cache_misses),
                    template.warm_cache_stats(), template.dc_effort_stats(),
                    batches)

        batched = run(performance_gradient_s)
        looped = run(_looped_gradient_s)
        assert batched[:4] == looped[:4]
        dim = CIRCUITS[name]().statistical_space.dim
        assert batched[4] == [dim, dim] and looped[4] == []

    def test_analytic_template_probes_match_the_scalar_loop(self):
        evaluator = Evaluator(LinearTemplate(offset=0.0))
        d = {"d0": 1.0, "d1": 0.0}
        theta = {"temp": 27.0}
        s_hat = np.array([0.3, -1.2])
        assert np.array_equal(
            performance_gradient_s(evaluator, "f", d, s_hat, theta),
            _looped_gradient_s(Evaluator(LinearTemplate(offset=0.0)), "f",
                               d, s_hat, theta))


class TestBatchedAnchorSlopes:
    @pytest.mark.parametrize("name", ALL_TEMPLATES)
    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_slopes_match_the_solve_dc_loop(self, name, offset):
        """From the anchor solution, and from a start 1 kV off that sends
        every axis down the cold chain, the lockstep axis solves give the
        per-axis ``solve_dc`` loop's slopes and strategy counts."""
        def run(slopes_fn):
            template = CIRCUITS[name]()
            d = template.initial_design()
            theta = template.operating_range.nominal()
            space = template.statistical_space
            x = solve_dc(template.build(d, space.to_physical(
                d, space.nominal()), theta), temp_c=theta["temp"],
                backend=template.linsolve).x
            slopes = slopes_fn(template, d, theta, x + offset)
            return slopes.tobytes(), template.dc_effort_stats()

        batched = run(lambda t, *args: t._anchor_slopes(*args))
        assert batched == run(_looped_slopes)
        label = "newton-warm" if offset == 0.0 else "newton"
        assert batched[1][label] == CIRCUITS[name]().statistical_space.dim

    def test_rows_the_plan_drops_run_serially(self, monkeypatch):
        solve = batch_module.SampleBatchPlan.solve

        def dropping(self, x0s):
            x, iterations, ok, strategies = solve(self, x0s)
            ok = ok.copy()
            ok[::2] = False
            strategies = [None if k % 2 == 0 else label
                          for k, label in enumerate(strategies)]
            return x, iterations, ok, strategies

        def run():
            template = CIRCUITS["folded-cascode"]()
            d = template.initial_design()
            theta = template.operating_range.nominal()
            x, slopes, _ = template._warm_anchor(d, theta)
            return x.tobytes(), slopes.tobytes(), \
                template.dc_effort_stats()

        exact = run()
        monkeypatch.setattr(batch_module.SampleBatchPlan, "solve", dropping)
        assert run() == exact


class TestBatchedProbeFaultParity:
    """The fault-tolerant stack through the batched probes: first-attempt
    failures are resumed by ``resume_after_failure`` in probe order, so
    values and fault counters equal the scalar loop's."""

    @staticmethod
    def _run(gradient_fn, actions, fail_mode):
        plain = Evaluator(MillerOpamp())
        d = plain.template.initial_design()
        theta = plain.template.operating_range.nominal()
        s_hat = np.zeros(plain.template.statistical_space.dim)
        base = plain.performance("a0", d, s_hat, theta)
        probes = sorted(plain.evaluate(d, s_hat + STEP_S * e, theta)["a0"]
                        for e in np.eye(s_hat.size))
        # Probes at or below the third-lowest a0 fault on their first
        # attempt; the one sitting on the threshold can recover on a
        # jittered retry, the others stay failed.
        template = _FaultyMiller(hard_below=float(np.nextafter(
            probes[2], np.inf)))
        guarded = FaultTolerantEvaluator(Evaluator(template),
                                         FaultPolicy(actions=actions),
                                         fail_mode=fail_mode)
        try:
            outcome = gradient_fn(guarded, "a0", d, s_hat, theta,
                                  base_value=base)
        except Exception as exc:
            outcome = exc
        return outcome, (guarded.failed_evaluations,
                         guarded.retried_evaluations,
                         guarded.recovered_evaluations)

    def test_retry_and_recover(self):
        actions = {RuntimeError: FaultAction.RETRY}
        batched, counts = self._run(performance_gradient_s, actions, "nan")
        looped, looped_counts = self._run(_looped_gradient_s, actions,
                                          "nan")
        assert _nan_equal(batched, looped)
        assert counts == looped_counts
        failed, retried, recovered = counts
        assert failed > 0 and retried > 0 and recovered > 0

    def test_count_as_fail_lenient(self):
        actions = {RuntimeError: FaultAction.COUNT_AS_FAIL}
        batched, counts = self._run(performance_gradient_s, actions, "nan")
        looped, looped_counts = self._run(_looped_gradient_s, actions,
                                          "nan")
        assert _nan_equal(batched, looped)
        assert counts == looped_counts == (3, 0, 0)
        assert np.isnan(batched).sum() == 3

    def test_strict_mode_reraises_the_same_class(self):
        actions = {RuntimeError: FaultAction.RETRY}
        batched, counts = self._run(performance_gradient_s, actions,
                                    "raise")
        looped, looped_counts = self._run(_looped_gradient_s, actions,
                                          "raise")
        assert isinstance(looped, RuntimeError)
        assert type(batched) is type(looped)
        assert counts == looped_counts
