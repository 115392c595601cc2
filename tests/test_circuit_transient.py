"""Unit tests for the transient engine (repro.circuit.transient)."""

import math

import numpy as np
import pytest

from repro.circuit import Circuit, solve_dc, solve_transient
from repro.circuit.transient import pulse_waveform, step_waveform
from repro.pdk.generic035 import NMOS


class TestWaveforms:
    def test_step_levels(self):
        w = step_waveform(1e-6, 0.0, 1.0)
        assert w(0.0) == 0.0
        assert w(0.99e-6) == 0.0
        assert w(1.01e-6) == 1.0

    def test_step_linear_rise(self):
        w = step_waveform(0.0, 0.0, 2.0, t_rise=1e-6)
        assert w(0.5e-6) == pytest.approx(1.0)
        assert w(2e-6) == 2.0

    def test_pulse_shape(self):
        w = pulse_waveform(0.0, 1.0, t_delay=1e-6, t_width=2e-6,
                           t_edge=0.5e-6)
        assert w(0.5e-6) == 0.0
        assert w(1.25e-6) == pytest.approx(0.5)
        assert w(2.0e-6) == 1.0
        assert w(3.75e-6) == pytest.approx(0.5)
        assert w(5.0e-6) == 0.0


class TestLinearTransient:
    def test_rc_step_response(self):
        """V(out) = 1 - exp(-t/RC), within backward-Euler accuracy."""
        r, c = 1e3, 1e-9
        tau = r * c
        ckt = Circuit("rc-step")
        ckt.vsource("V1", "in", "0", dc=0.0,
                    waveform=step_waveform(0.0, 0.0, 1.0))
        ckt.resistor("R1", "in", "out", r)
        ckt.capacitor("C1", "out", "0", c)
        result = solve_transient(ckt, t_stop=5 * tau, dt=tau / 200)
        v = result.voltage("out")
        t = result.times
        expected = 1.0 - np.exp(-t / tau)
        assert np.max(np.abs(v - expected)) < 0.01

    def test_rl_current_rise(self):
        """Inductor current approaches V/R with time constant L/R."""
        r, l = 100.0, 1e-3
        tau = l / r
        ckt = Circuit("rl-step")
        ckt.vsource("V1", "in", "0", dc=0.0,
                    waveform=step_waveform(0.0, 0.0, 1.0))
        ckt.resistor("R1", "in", "mid", r)
        ckt.inductor("L1", "mid", "0", l)
        result = solve_transient(ckt, t_stop=5 * tau, dt=tau / 200)
        # V(mid) decays to 0 as the inductor current saturates.
        v_mid = result.voltage("mid")
        assert v_mid[-1] == pytest.approx(0.0, abs=0.01)
        assert v_mid[1] == pytest.approx(1.0, abs=0.05)

    def test_initial_condition_override(self):
        ckt = Circuit("ic")
        ckt.resistor("R1", "a", "0", 1e3)
        ckt.capacitor("C1", "a", "0", 1e-9, ic=2.0)
        ckt.resistor("Rbig", "a", "0", 1e9)  # keeps DC solvable
        result = solve_transient(ckt, t_stop=1e-8, dt=1e-9)
        # The capacitor starts from its IC and discharges through R1.
        assert result.voltage("a")[1] == pytest.approx(2.0, rel=0.1)

    def test_slew_rate_helper(self):
        ckt = Circuit("ramp")
        ckt.vsource("V1", "in", "0", dc=0.0,
                    waveform=step_waveform(0.0, 0.0, 1.0, t_rise=1e-6))
        ckt.resistor("R1", "in", "out", 1.0)
        ckt.capacitor("C1", "out", "0", 1e-15)
        result = solve_transient(ckt, t_stop=2e-6, dt=1e-8)
        assert result.slew_rate("out") == pytest.approx(1e6, rel=0.05)
        assert result.slew_rate("out", polarity=-1) <= 0.01e6


class TestMosTransient:
    def test_nmos_inverter_switches(self):
        """Resistor-load inverter: output falls when the input steps up."""
        ckt = Circuit("inverter")
        ckt.vsource("VDD", "vdd", "0", dc=3.3)
        ckt.vsource("VIN", "g", "0", dc=0.0,
                    waveform=step_waveform(1e-9, 0.0, 3.3, t_rise=1e-10))
        ckt.resistor("RD", "vdd", "d", 10e3)
        ckt.capacitor("CL", "d", "0", 100e-15)
        ckt.mosfet("M1", "d", "g", "0", "0", NMOS, w=10e-6, l=1e-6)
        result = solve_transient(ckt, t_stop=20e-9, dt=0.05e-9)
        v = result.voltage("d")
        assert v[0] == pytest.approx(3.3, abs=0.01)  # off initially
        assert v[-1] < 0.5  # pulled low after the step

    def test_unknown_node_raises(self):
        ckt = Circuit("x")
        ckt.vsource("V1", "a", "0", dc=1.0)
        ckt.resistor("R1", "a", "0", 1e3)
        result = solve_transient(ckt, t_stop=1e-9, dt=1e-10)
        with pytest.raises(KeyError):
            result.voltage("nope")
        assert np.all(result.voltage("0") == 0.0)


class TestTransientNewton:
    def test_non_finite_update_fails_at_once(self, monkeypatch):
        """A NaN stamp makes the step's Newton update non-finite: the
        step fails with ConvergenceError after a single stamping pass
        instead of spending its whole iteration budget."""
        from repro.circuit.devices import Capacitor
        from repro.errors import ConvergenceError

        ckt = Circuit("rc")
        ckt.vsource("V1", "in", "0", dc=1.0)
        ckt.resistor("R1", "in", "out", 1e3)
        ckt.capacitor("C1", "out", "0", 1e-9)
        op = solve_dc(ckt)
        passes = []

        def nan_stamp(self, st, x, nodes, branches, state, h, t):
            passes.append(t)
            st.add_rhs(nodes[0], float("nan"))

        monkeypatch.setattr(Capacitor, "stamp_tran", nan_stamp)
        with pytest.raises(ConvergenceError):
            solve_transient(ckt, t_stop=1e-8, dt=1e-9, op=op)
        assert len(passes) == 1


class TestDegenerateSlew:
    """Degenerate waveforms must raise ExtractionError from slew_rate
    (so fault policies can classify them), never a bare numpy error."""

    def _result(self, times, volts):
        from repro.circuit.transient import TranResult

        class _Layout:
            node_index = {"out": 0}

        return TranResult(Circuit("stub"), _Layout(),
                          np.asarray(times, dtype=float),
                          np.asarray(volts, dtype=float).reshape(-1, 1))

    def test_single_point_waveform(self):
        from repro.errors import ExtractionError
        with pytest.raises(ExtractionError, match="at least 2 time points"):
            self._result([0.0], [1.0]).slew_rate("out")

    def test_empty_waveform(self):
        from repro.errors import ExtractionError
        with pytest.raises(ExtractionError, match="at least 2 time points"):
            self._result([], []).slew_rate("out")

    def test_duplicate_timesteps(self):
        from repro.errors import ExtractionError
        with pytest.raises(ExtractionError, match="non-increasing"):
            self._result([0.0, 1e-9, 1e-9, 2e-9],
                         [0.0, 1.0, 2.0, 3.0]).slew_rate("out")

    def test_two_points_still_work(self):
        result = self._result([0.0, 1e-6], [0.0, 1.0])
        assert result.slew_rate("out") == pytest.approx(1e6)
        assert result.slew_rate("out", polarity=-1) == pytest.approx(-1e6)
