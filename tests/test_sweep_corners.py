"""Tests for the DC sweep analysis and the PVT corner report."""

import numpy as np
import pytest

from helpers import LinearTemplate
from repro.circuit import Circuit, dc_sweep, temperature_sweep
from repro.errors import NetlistError
from repro.evaluation import Evaluator, corner_analysis
from repro.circuits import MillerOpamp
from repro.pdk.generic035 import NMOS


def cs_stage():
    c = Circuit("cs")
    c.vsource("VDD", "vdd", "0", dc=3.3)
    c.vsource("VG", "g", "0", dc=0.0)
    c.resistor("RD", "vdd", "d", 10e3)
    c.mosfet("M1", "d", "g", "0", "0", NMOS, w=10e-6, l=1e-6)
    return c


class TestDcSweep:
    def test_transfer_curve_is_monotone_inverter(self):
        circuit = cs_stage()
        sweep = dc_sweep(circuit, "VG", np.linspace(0.0, 2.0, 21))
        vout = sweep.voltage("d")
        assert vout[0] == pytest.approx(3.3, abs=0.01)  # device off
        assert vout[-1] < 0.5  # device hard on
        assert np.all(np.diff(vout) <= 1e-9)  # monotone falling

    def test_current_tracking(self):
        circuit = cs_stage()
        sweep = dc_sweep(circuit, "VG", [0.0, 1.0, 1.5])
        ids = sweep.device_current("M1")
        assert ids[0] < 1e-9
        assert ids[2] > ids[1] > 0

    def test_region_changes_detected(self):
        circuit = cs_stage()
        sweep = dc_sweep(circuit, "VG", np.linspace(0.0, 2.5, 51))
        changes = sweep.region_changes("M1")
        regions = [c[2] for c in changes]
        assert "saturation" in regions  # cutoff -> saturation
        assert "triode" in regions  # saturation -> triode at high VG

    def test_source_value_restored(self):
        circuit = cs_stage()
        dc_sweep(circuit, "VG", [0.5, 1.0])
        assert circuit.device("VG").dc == 0.0

    def test_current_source_sweep(self):
        c = Circuit("diode")
        c.vsource("VDD", "vdd", "0", dc=3.3)
        c.isource("IB", "vdd", "d", dc=10e-6)
        c.mosfet("M1", "d", "d", "0", "0", NMOS, w=20e-6, l=1e-6)
        sweep = dc_sweep(c, "IB", [5e-6, 20e-6, 80e-6])
        vgs = sweep.voltage("d")
        assert np.all(np.diff(vgs) > 0)  # vgs grows with current

    def test_non_source_rejected(self):
        circuit = cs_stage()
        with pytest.raises(NetlistError):
            dc_sweep(circuit, "RD", [1.0])

    def test_temperature_sweep(self):
        c = Circuit("diode")
        c.vsource("VDD", "vdd", "0", dc=3.3)
        c.resistor("R1", "vdd", "d", 100e3)
        c.mosfet("M1", "d", "d", "0", "0", NMOS, w=20e-6, l=1e-6)
        sweep = temperature_sweep(c, [-40.0, 27.0, 125.0])
        vgs = sweep.voltage("d")
        assert len(sweep) == 3
        assert vgs[0] != pytest.approx(vgs[2], abs=1e-3)


class TestCornerAnalysis:
    def test_fake_template_worst_corner(self):
        template = LinearTemplate(offset=1.0, cs=np.array([1.0, 0.0]),
                                  ct=0.01)
        evaluator = Evaluator(template)
        report = corner_analysis(evaluator, {"d0": 0.0, "d1": 0.0},
                                 sigma_level=3.0)
        worst = report.worst["f>="]
        # f = 1 + 0.01*temp + s0: worst at temp low and g0 at -3 sigma.
        assert worst.value == pytest.approx(1.0 + 0.0 - 3.0, abs=1e-9)
        assert worst.corner == "g0-3"
        assert worst.theta["temp"] == 0.0
        assert not report.passes()
        assert report.failing_specs() == ["f>="]

    def test_simulation_count(self):
        template = LinearTemplate()
        evaluator = Evaluator(template)
        report = corner_analysis(evaluator, {"d0": 1.0, "d1": 0.0})
        # (2 globals * 2 + typ) corners x (2 + 1) operating points.
        assert report.simulations == 5 * 3

    def test_summary_renders(self):
        template = LinearTemplate()
        evaluator = Evaluator(template)
        report = corner_analysis(evaluator, {"d0": 1.0, "d1": 0.0})
        text = report.summary()
        assert "worst value" in text
        assert "f>=" in text

    @pytest.mark.slow
    def test_miller_corner_report(self):
        """The initial Miller design fails its slew-rate spec at a low
        supply / sheet-resistance-high corner — consistent with the
        Monte-Carlo picture of Table 6."""
        template = MillerOpamp()
        evaluator = Evaluator(template)
        report = corner_analysis(evaluator, template.initial_design())
        assert "sr>=" in report.failing_specs()
        worst_sr = report.worst["sr>="]
        assert worst_sr.theta["vdd"] == 3.0
        assert worst_sr.corner.startswith("gres")
