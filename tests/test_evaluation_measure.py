"""Tests for the open-loop opamp measurement bench on an ideal (VCVS)
opamp, where every measured quantity has a closed form."""

import math

import numpy as np
import pytest

from repro.circuit import Circuit
from repro.evaluation.measure import (FEEDBACK_INDUCTANCE,
                                      OpenLoopOpampBench,
                                      add_openloop_bench)


def ideal_opamp_bench(gain=1000.0, pole_hz=1e3, cm_gain=0.05, vcm=1.5):
    """Ideal single-pole opamp: out = (A*(v+ - v-) + Acm*vcm_in) * pole.

    Built from controlled sources plus an output RC for the pole.  The
    common-mode path uses an averaging VCVS pair.
    """
    c = Circuit("ideal-opamp")
    c.vsource("VDD", "vdd", "0", dc=3.3)
    c.resistor("RDUMMY", "vdd", "0", 3.3e3)  # 1 mA supply draw
    # Differential stage: e_dm = gain*(inp - inn); cm path via two 0.5
    # gains summed by series sources.
    c.vcvs("EDM", "x1", "0", "inp", "inn", gain)
    c.vcvs("ECMP", "x2", "x1", "inp", "0", cm_gain / 2)
    c.vcvs("ECMN", "xsum", "x2", "inn", "0", cm_gain / 2)
    # Output pole.
    r, cap = 1e3, 1.0 / (2 * math.pi * pole_hz * 1e3)
    c.resistor("RP", "xsum", "out", r)
    c.capacitor("CP", "out", "0", cap)
    add_openloop_bench(c, inp="inp", inn="inn", out="out", vcm=vcm)
    return OpenLoopOpampBench(c, out="out", supply_source="VDD")


class TestIdealOpampMeasurements:
    def test_dc_point_follows_common_mode(self):
        bench = ideal_opamp_bench(vcm=1.5)
        # Unity feedback: out settles at ~vcm (+ cm-gain induced offset).
        assert bench.op.voltage("out") == pytest.approx(1.5, abs=0.2)

    def test_differential_gain(self):
        bench = ideal_opamp_bench(gain=1000.0)
        assert abs(bench.differential_gain()) == pytest.approx(1000.0,
                                                               rel=0.01)

    def test_common_mode_gain_and_cmrr(self):
        bench = ideal_opamp_bench(gain=1000.0, cm_gain=0.05)
        assert abs(bench.common_mode_gain()) == pytest.approx(0.05,
                                                              rel=0.05)
        expected_cmrr = 20 * math.log10(1000.0 / 0.05)
        assert bench.cmrr_db() == pytest.approx(expected_cmrr, abs=0.5)

    def test_transit_frequency_is_gbw(self):
        bench = ideal_opamp_bench(gain=1000.0, pole_hz=1e3)
        # Single pole: f_t = A0 * f_pole.
        assert bench.transit_frequency() == pytest.approx(1e6, rel=0.01)

    def test_phase_margin_single_pole(self):
        bench = ideal_opamp_bench(gain=1000.0, pole_hz=1e3)
        assert bench.phase_margin() == pytest.approx(90.0, abs=1.0)

    def test_supply_power(self):
        bench = ideal_opamp_bench()
        assert bench.supply_power(3.3) == pytest.approx(3.3e-3, rel=0.01)

    def test_measure_bundle(self):
        bench = ideal_opamp_bench(gain=1000.0)
        assert bench.a0_db() == pytest.approx(60.0, abs=0.1)
        assert bench.ft_hz() == pytest.approx(1e6, rel=0.02)
        assert bench.pm_deg() == pytest.approx(90.0, abs=1.5)
        assert bench.op.voltage("out") == pytest.approx(1.5, abs=0.2)

    def test_ac_systems_cached_per_drive(self):
        bench = ideal_opamp_bench()
        bench.differential_gain()
        bench.differential_gain(10.0)
        bench.common_mode_gain()
        assert len(bench._systems) == 2

    def test_feedback_inductor_present(self):
        bench = ideal_opamp_bench()
        lfb = bench.circuit.device("LFB")
        assert lfb.inductance == FEEDBACK_INDUCTANCE
