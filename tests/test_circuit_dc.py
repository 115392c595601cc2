"""Unit tests for the DC operating-point solver (repro.circuit.dc)."""

import logging
from typing import FrozenSet, List, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.circuit.dc as dc_module
from repro import counters
from repro.circuit import Circuit, solve_dc
from repro.circuit.dc import (CONVERGED, DcEffort, GMIN_FACTOR, GMIN_FINAL,
                              GMIN_START, SOURCE_SCALES, device_stage,
                              gmin_schedule, homotopy_chain, newton_stage)
from repro.circuit.devices import Isource, Vsource
from repro.circuit.linsolve import resolve_backend
from repro.errors import ConvergenceError, SingularMatrixError
from repro.pdk.generic035 import NMOS, PMOS


def divider(ratio_top=1e3, ratio_bottom=1e3, vin=2.0):
    c = Circuit("divider")
    c.vsource("V1", "in", "0", dc=vin)
    c.resistor("R1", "in", "out", ratio_top)
    c.resistor("R2", "out", "0", ratio_bottom)
    return c


class TestLinearCircuits:
    def test_resistive_divider(self):
        result = solve_dc(divider())
        assert result.voltage("out") == pytest.approx(1.0, abs=1e-6)

    def test_source_current_direction(self):
        result = solve_dc(divider())
        # 2 V over 2 kOhm: 1 mA flows out of the source's + terminal.
        assert result.source_current("V1") == pytest.approx(-1e-3, rel=1e-6)

    def test_current_source_into_resistor(self):
        c = Circuit("isrc")
        c.isource("I1", "0", "n1", dc=1e-3)  # pushes current into n1
        c.resistor("R1", "n1", "0", 1e3)
        result = solve_dc(c)
        assert result.voltage("n1") == pytest.approx(1.0, rel=1e-6)

    def test_vcvs_gain(self):
        c = Circuit("vcvs")
        c.vsource("V1", "a", "0", dc=0.5)
        c.resistor("RL", "b", "0", 1e3)
        c.vcvs("E1", "b", "0", "a", "0", gain=4.0)
        result = solve_dc(c)
        assert result.voltage("b") == pytest.approx(2.0, rel=1e-9)

    def test_vccs_transconductance(self):
        c = Circuit("vccs")
        c.vsource("V1", "a", "0", dc=1.0)
        c.resistor("RL", "b", "0", 2e3)
        c.vccs("G1", "0", "b", "a", "0", gm=1e-3)  # pushes 1 mA into b
        result = solve_dc(c)
        assert result.voltage("b") == pytest.approx(2.0, rel=1e-6)

    def test_inductor_is_dc_short(self):
        c = Circuit("lshort")
        c.vsource("V1", "a", "0", dc=1.0)
        c.inductor("L1", "a", "b", 1e-3)
        c.resistor("R1", "b", "0", 1e3)
        result = solve_dc(c)
        assert result.voltage("b") == pytest.approx(1.0, abs=1e-9)

    def test_capacitor_is_dc_open(self):
        c = Circuit("copen")
        c.vsource("V1", "a", "0", dc=1.0)
        c.resistor("R1", "a", "b", 1e3)
        c.capacitor("C1", "b", "0", 1e-9)
        c.resistor("R2", "b", "0", 1e6)  # define the node
        result = solve_dc(c)
        assert result.voltage("b") == pytest.approx(1.0 * 1e6 / 1.001e6,
                                                    rel=1e-4)


class TestMosCircuits:
    def test_diode_connected_nmos_settles_above_vth(self):
        c = Circuit("diode")
        c.vsource("VDD", "vdd", "0", dc=3.3)
        c.resistor("R1", "vdd", "d", 100e3)
        c.mosfet("M1", "d", "d", "0", "0", NMOS, w=20e-6, l=1e-6)
        result = solve_dc(c)
        vgs = result.voltage("d")
        assert NMOS.vto < vgs < 1.2
        # KCL: resistor current equals drain current.
        i_r = (3.3 - vgs) / 100e3
        assert result.op("M1")["ids"] == pytest.approx(i_r, rel=1e-4)

    def test_current_mirror_ratio(self):
        c = Circuit("mirror")
        c.vsource("VDD", "vdd", "0", dc=3.3)
        c.isource("IB", "vdd", "g", dc=10e-6)
        c.mosfet("M1", "g", "g", "0", "0", NMOS, w=10e-6, l=2e-6)
        c.mosfet("M2", "d2", "g", "0", "0", NMOS, w=30e-6, l=2e-6)
        c.vsource("VD", "d2", "0", dc=1.0)
        result = solve_dc(c)
        i1 = result.op("M1")["ids"]
        i2 = result.op("M2")["ids"]
        # 3:1 mirror (within channel-length-modulation error).
        assert i2 / i1 == pytest.approx(3.0, rel=0.1)

    def test_pmos_source_follower_level_shift(self):
        c = Circuit("follower")
        c.vsource("VDD", "vdd", "0", dc=3.3)
        c.vsource("VG", "g", "0", dc=1.0)
        c.isource("IB", "vdd", "s", dc=20e-6)  # bias current into the source
        c.mosfet("M1", "0", "g", "s", "vdd", PMOS, w=40e-6, l=1e-6)
        result = solve_dc(c)
        vs = result.voltage("s")
        assert vs > 1.0 + abs(PMOS.vto) * 0.8  # shifted up by ~|vgs|

    def test_reverse_mode_swaps_source_drain(self):
        """A symmetric device conducts either way; the op record flags it."""
        c = Circuit("reverse")
        c.vsource("V1", "a", "0", dc=0.0)
        c.vsource("V2", "b", "0", dc=1.0)
        c.vsource("VG", "g", "0", dc=2.0)
        c.mosfet("M1", "a", "g", "b", "0", NMOS, w=10e-6, l=1e-6)
        result = solve_dc(c)
        op = result.op("M1")
        assert op["swapped"] is True
        assert op["vds"] >= 0.0

    def test_multiplier_scales_current(self):
        def drain_current(m):
            c = Circuit("mult")
            c.vsource("VDD", "vdd", "0", dc=3.3)
            c.vsource("VG", "g", "0", dc=1.0)
            c.mosfet("M1", "vdd", "g", "0", "0", NMOS, w=10e-6, l=1e-6, m=m)
            return solve_dc(c).op("M1")["ids"]
        assert drain_current(4) == pytest.approx(4 * drain_current(1),
                                                 rel=1e-6)


class TestRobustness:
    def test_warm_start_reduces_iterations(self):
        c = divider()
        cold = solve_dc(c)
        warm = solve_dc(c, x0=cold.x)
        assert warm.iterations <= cold.iterations

    def test_singular_matrix_reported(self):
        c = Circuit("loop")
        c.vsource("V1", "a", "0", dc=1.0)
        c.vsource("V2", "a", "0", dc=2.0)  # conflicting source loop
        c.resistor("R1", "a", "0", 1e3)
        with pytest.raises((SingularMatrixError, ConvergenceError)):
            solve_dc(c)

    def test_temperature_changes_operating_point(self):
        c = Circuit("temp")
        c.vsource("VDD", "vdd", "0", dc=3.3)
        c.resistor("R1", "vdd", "d", 100e3)
        c.mosfet("M1", "d", "d", "0", "0", NMOS, w=20e-6, l=1e-6)
        cold = solve_dc(c, temp_c=-40.0).voltage("d")
        hot = solve_dc(c, temp_c=125.0).voltage("d")
        assert cold != pytest.approx(hot, abs=1e-3)

    def test_voltages_dict_covers_all_nodes(self):
        result = solve_dc(divider())
        assert set(result.voltages()) == {"in", "out"}

    def test_unknown_node_raises(self):
        result = solve_dc(divider())
        with pytest.raises(KeyError):
            result.voltage("nope")
        assert result.voltage("0") == 0.0

    def test_unknown_device_op_raises(self):
        result = solve_dc(divider())
        with pytest.raises(KeyError):
            result.op("M404")
        with pytest.raises(KeyError):
            result.source_current("R1")  # no branch current


class _StubLayout:
    def __init__(self, n_nodes, size):
        self.n_nodes = n_nodes
        self.size = size


class _StubSystem:
    """Linear-solve stub returning a fixed point regardless of x."""

    def __init__(self, x_star):
        self.x_star = np.asarray(x_star, dtype=float)

    def solve_at(self, x):
        return self.x_star.copy()


class _StubBackend:
    def __init__(self, x_star):
        self._x_star = x_star

    def dc_system(self, circuit, layout, gmin):
        return _StubSystem(self._x_star)


def _stub_stage_newton(layout, x_star):
    """One Newton stage of the device-stamp kernel over a stub backend
    whose linear solve always returns ``x_star``."""
    stage = device_stage(Circuit("stub"), layout, _StubBackend(x_star))
    x, iterations, outcome = newton_stage(
        stage, np.zeros(1, dtype=np.intp), np.zeros((1, layout.size)),
        layout.n_nodes)
    assert outcome[0] == CONVERGED
    return x[0], iterations[0]


class TestNewtonConvergenceBranches:
    """Regression tests for the two explicit convergence branches of
    the damped-Newton stage: the degenerate no-node-voltages case
    returns on the first accepted step, and the normal case tests the
    damped step against the absolute/relative tolerance."""

    def test_no_node_voltages_converges_on_first_accepted_step(self):
        # nv == 0: the whole state is branch currents, the damping test
        # is vacuous (step = 0.0) and any finite solve is converged —
        # even one that jumps far from x0.
        x, iterations = _stub_stage_newton(_StubLayout(n_nodes=0, size=2),
                                           [5.0, -3.0])
        assert iterations == 1
        assert np.array_equal(x, [5.0, -3.0])

    def test_node_voltages_require_tolerance(self):
        # nv > 0 with a fixed point inside the damping limit: iteration 1
        # accepts the full step (|delta| = 0.5 > tolerance, so it does
        # not converge yet); iteration 2 has delta = 0 and converges.
        x, iterations = _stub_stage_newton(_StubLayout(n_nodes=1, size=1),
                                           [0.5])
        assert iterations == 2
        assert np.array_equal(x, [0.5])


class TestGminSchedule:
    def test_schedule_shared_by_both_solvers(self):
        values = list(gmin_schedule())
        assert values[0] == GMIN_START
        assert values[-1] == GMIN_FINAL  # the literal, bitwise
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v >= GMIN_FINAL for v in values)
        # The interior values are products of repeated multiplication,
        # which the docstring warns are not the round literals.
        assert values[1] == GMIN_START * GMIN_FACTOR


class _ScaleRecordingBackend:
    """The real backend, recording the sources' scale at every stamp;
    ``fail`` makes every stamp raise after recording."""

    def __init__(self, n_nodes, fail=False):
        self._backend = resolve_backend(None, n_nodes)
        self.fail = fail
        self.seen = []

    def dc_system(self, circuit, layout, gmin):
        self.seen.append([dev.scale for dev in circuit.devices
                          if isinstance(dev, (Vsource, Isource))][0])
        if self.fail:
            raise RuntimeError("stamp failure")
        return self._backend.dc_system(circuit, layout, gmin)


class TestSourceStepping:
    def _diode_circuit(self):
        c = Circuit("diode")
        c.vsource("VDD", "vdd", "0", dc=3.3)
        c.resistor("R1", "vdd", "d", 100e3)
        c.mosfet("M1", "d", "d", "0", "0", NMOS, w=20e-6, l=1e-6)
        for dev in c.devices:
            dev.prepare(27.0)
        return c

    def test_restores_caller_scales_on_success(self):
        # Newton and gmin stepping are forced to escalate (non-finite
        # updates), so source stepping wins the chain: every sub-stage
        # stamps at its ramp scale and the caller's scale survives.
        c = self._diode_circuit()
        layout = c.layout()
        backend = _ScaleRecordingBackend(layout.n_nodes)
        stage = device_stage(c, layout, backend)

        def stepping_only(rows, gmin, scale):
            if scale is None:
                return lambda x, active: (np.full_like(x, np.nan), None)
            return stage(rows, gmin, scale)

        c.devices[0].scale = 0.25
        x, iterations, strategy = homotopy_chain(
            stepping_only, 1, layout.size, layout.n_nodes)
        assert strategy == ["source-stepping"]
        assert backend.seen == list(SOURCE_SCALES)
        assert c.devices[0].scale == 0.25
        # The ramp ends at full scale, whatever the caller's scale.
        assert x[0][0] == pytest.approx(3.3)

    def test_restores_caller_scales_on_failure(self, monkeypatch):
        c = self._diode_circuit()
        c.devices[0].scale = 0.75
        monkeypatch.setattr(dc_module, "MAX_ITERATIONS", 0)
        with pytest.raises(ConvergenceError):
            solve_dc(c)
        assert c.devices[0].scale == 0.75
        # A stamp that raises while the ramp scale is applied restores
        # the caller's scale too.
        layout = c.layout()
        backend = _ScaleRecordingBackend(layout.n_nodes, fail=True)
        with pytest.raises(RuntimeError):
            device_stage(c, layout, backend)(np.zeros(1, dtype=np.intp),
                                             GMIN_FINAL, SOURCE_SCALES[0])
        assert backend.seen == [SOURCE_SCALES[0]]
        assert c.devices[0].scale == 0.75

    def test_ramp_ends_at_full_scale(self):
        assert SOURCE_SCALES[-1] == 1.0


class TestDcEffort:
    def test_counts_winning_strategy(self):
        effort = DcEffort()
        solve_dc(divider(), effort=effort)
        assert effort["newton"] == 1
        assert effort["failed"] == 0

    def test_counts_warm_strategy(self):
        effort = DcEffort()
        cold = solve_dc(divider())
        solve_dc(divider(), x0=cold.x, effort=effort)
        assert effort["newton-warm"] == 1
        assert effort["newton"] == 0

    def test_counts_exhausted_chain_as_failed(self, monkeypatch):
        monkeypatch.setattr(dc_module, "MAX_ITERATIONS", 0)
        effort = DcEffort()
        with pytest.raises(ConvergenceError):
            solve_dc(divider(), effort=effort)
        assert effort["failed"] == 1
        assert all(effort[key] == 0 for key in effort if key != "failed")

    def test_absorb_and_delta_mirror_warm_cache_protocol(self):
        a = DcEffort()
        a.count("newton", 3)
        a.count("gmin-stepping")
        before = counters.snapshot({"dc_effort": a})
        a.absorb({"newton": 2, "source-stepping": 1})
        delta = counters.since({"dc_effort": a}, before)["dc_effort"]
        assert delta == {"newton-warm": 0, "newton": 2,
                         "gmin-stepping": 0, "source-stepping": 1,
                         "failed": 0}


class _RowSpec(NamedTuple):
    target: List[float]
    start: List[float]
    rate: float
    #: numbers (in the order the row enters them) of the stages that fail
    fail_stages: FrozenSet[int]
    #: the failing stage's iteration that fails
    fail_at: int
    #: fail with ``solved=False`` instead of a NaN update
    singular: bool


class _ContractingRows:
    """Circuit-free kernel factory: row ``r`` contracts toward its own
    fixed point (shifted by the stage's gmin and scale) at its own rate.
    At the stages numbered in its ``fail_stages`` it returns a NaN
    update, or reports ``solved=False``, at iteration ``fail_at``.  All
    state is per row, so a row sees the same kernel alone or stacked."""

    def __init__(self, specs):
        self.specs = specs
        self.entered = {}

    def __call__(self, rows, gmin, scale):
        stage_of = {}
        for r in rows:
            stage_of[r] = self.entered.get(r, 0)
            self.entered[r] = stage_of[r] + 1
        calls = {}

        def solve(x, active):
            ids = rows[active]
            specs = [self.specs[r] for r in ids]
            target = np.array([s.target for s in specs]) \
                * (1.0 if scale is None else scale) + gmin
            rate = np.array([s.rate for s in specs])[:, None]
            x_new = target + rate * (x - target)
            solved = np.ones(len(ids), dtype=bool)
            for i, (r, spec) in enumerate(zip(ids, specs)):
                calls[r] = calls.get(r, 0) + 1
                if stage_of[r] in spec.fail_stages \
                        and calls[r] == spec.fail_at:
                    if spec.singular:
                        solved[i] = False
                    else:
                        x_new[i, spec.fail_at % x.shape[1]] = np.nan
            return x_new, solved

        return solve


@st.composite
def _row_sets(draw):
    size = draw(st.integers(1, 4))
    n_nodes = draw(st.integers(0, size))
    vector = st.lists(st.floats(-2.0, 2.0), min_size=size, max_size=size)
    # Starts up to 20 V away: the first updates are damped.
    far = st.lists(st.floats(-20.0, 20.0), min_size=size, max_size=size)
    # The first few stages a row enters fail, plus a few later ones.
    fail_stages = st.tuples(
        st.integers(0, 4), st.frozensets(st.integers(0, 16), max_size=2)
    ).map(lambda t: frozenset(range(t[0])) | t[1])
    specs = draw(st.lists(st.builds(
        _RowSpec, target=vector, start=far, rate=st.floats(0.0, 0.7),
        fail_stages=fail_stages, fail_at=st.integers(1, 4),
        singular=st.booleans()), min_size=1, max_size=6))
    return size, n_nodes, specs


class TestDriverRowIndependence:
    """Rows never interact in the shared driver: stacking K rows gives
    every row exactly the bits, iteration count and outcome it gets
    alone.  Scalar/batched parity rests on this property."""

    @given(case=_row_sets())
    @settings(max_examples=40, deadline=None)
    def test_newton_stage_rows_match_alone(self, case):
        size, n_nodes, specs = case
        x0 = np.array([spec.start for spec in specs])
        x, its, out = newton_stage(_ContractingRows(dict(enumerate(specs))),
                                   np.arange(len(specs)), x0, n_nodes)
        for r, spec in enumerate(specs):
            x1, its1, out1 = newton_stage(_ContractingRows({0: spec}),
                                          np.arange(1), x0[r:r + 1],
                                          n_nodes)
            assert x[r].tobytes() == x1[0].tobytes()
            assert (its[r], out[r]) == (its1[0], out1[0])
            if n_nodes == 0 and out[r] == CONVERGED:
                # No node voltages: the first accepted step converges.
                assert its[r] == 1

    @given(case=_row_sets(), warm=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_chain_rows_match_alone(self, case, warm):
        size, n_nodes, specs = case
        x0 = np.array([spec.start for spec in specs])
        x, its, labels = homotopy_chain(
            _ContractingRows(dict(enumerate(specs))), len(specs), size,
            n_nodes, x0 if warm else None)
        for r, spec in enumerate(specs):
            x1, its1, labels1 = homotopy_chain(
                _ContractingRows({0: spec}), 1, size, n_nodes,
                x0[r:r + 1] if warm else None)
            assert x[r].tobytes() == x1[0].tobytes()
            assert (its[r], labels[r]) == (its1[0], labels1[0])

    def test_chain_escalation_order_and_log(self, caplog):
        # Failing the first k stages a row enters lands it on the k-th
        # strategy of the warm chain; a singular matrix leaves at once.
        def row(fail_stages, singular=False):
            return _RowSpec([0.5, -0.25], [0.0, 0.0], 0.5,
                            frozenset(fail_stages), 1, singular)

        specs = [row([]), row([0]), row([0, 1]), row([0, 1, 2]),
                 row(range(17)), row([0], singular=True)]
        caplog.set_level(logging.DEBUG, logger="repro.circuit.dc")
        x0 = np.zeros((len(specs), 2))
        _, _, labels = homotopy_chain(
            _ContractingRows(dict(enumerate(specs))), len(specs), 2, 2, x0)
        assert labels == ["newton-warm", "newton", "gmin-stepping",
                          "source-stepping", None, None]
        assert [r.getMessage() for r in caplog.records
                if r.name == "repro.circuit.dc"] == [
            "DC homotopy: 1 row(s) leave newton-warm on a singular matrix",
            "DC homotopy: 4 row(s) escalate from newton-warm to newton",
            "DC homotopy: 3 row(s) escalate from newton to gmin-stepping",
            "DC homotopy: 2 row(s) escalate from gmin-stepping to "
            "source-stepping",
            "DC homotopy: 1 row(s) exhausted the chain at source-stepping"]
