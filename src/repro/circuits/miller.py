"""Miller (two-stage) operational amplifier — Fig. 8 of the paper.

Classic two-stage topology with Miller compensation:

* ``M1/M2``  NMOS input differential pair,
* ``M3/M4``  PMOS current-mirror load (M3 diode-connected),
* ``M5``     NMOS tail current source, mirrored from the diode ``M8``,
* ``M6``     PMOS common-source second stage,
* ``M7``     NMOS output current sink (same mirror as M5),
* ``CC``(+ nulling resistor ``RZ``) Miller compensation, ``CL`` load,
* ``RB``     supply-referred bias resistor: the bias current is
  ``(VDD - VGS(M8)) / RB`` and therefore varies with supply, temperature
  and global process shifts — which is what gives the specs their
  operational spread.

Following the paper (Sec. 6, Table 6), this template models **global
variations only**.

Performances (presentation units): ``a0`` [dB], ``ft`` [MHz], ``pm`` [deg],
``sr`` [V/us], ``power`` [mW].  Specifications follow Table 6 of the
paper: A0 > 80 dB, ft > 1.3 MHz, PM > 60 deg, SR > 3 V/us, Power < 1.3 mW.
"""

from __future__ import annotations

import math
from typing import Collection, Dict, Mapping, Optional

from ..circuit.netlist import Circuit
from ..evaluation.measure import OpenLoopOpampBench, add_openloop_bench
from ..evaluation.template import DesignParameter, measure_requested
from ..pdk.generic035 import GENERIC035
from ..pdk.process import Process
from ..spec.specification import Performance, Spec
from ..statistics.space import PhysicalVariations
from .base import OpampTemplate

#: Fixed elements (not designable).
LOAD_CAPACITANCE = 20e-12
DIODE_W = 20e-6  # bias diode M8 width
INPUT_VCM_FRACTION = 0.45  # input common mode as fraction of VDD

_DESIGN_PARAMETERS = (
    DesignParameter("w1", 5e-6, 200e-6, 40e-6),    # input pair width
    DesignParameter("l1", 0.35e-6, 5e-6, 2.0e-6),  # input pair length
    DesignParameter("w3", 5e-6, 200e-6, 25e-6),    # mirror load width
    DesignParameter("l3", 0.35e-6, 5e-6, 2.0e-6),  # mirror load length
    DesignParameter("w5", 5e-6, 300e-6, 30e-6),    # tail width
    DesignParameter("l5", 0.35e-6, 5e-6, 1.0e-6),  # tail/mirror length
    DesignParameter("w6", 20e-6, 1000e-6, 200e-6),  # 2nd stage width
    DesignParameter("l6", 0.35e-6, 5e-6, 1.0e-6),  # 2nd stage length
    DesignParameter("w7", 5e-6, 500e-6, 60e-6),    # output sink width
    DesignParameter("cc", 2e-12, 30e-12, 10e-12, unit="F"),  # Miller cap
    DesignParameter("rb", 3e4, 5e5, 1.2e5, unit="Ohm"),      # bias resistor
)

_PERFORMANCES = (
    Performance("a0", "dB", "open-loop DC gain"),
    Performance("ft", "MHz", "unity-gain (transit) frequency"),
    Performance("pm", "deg", "phase margin"),
    Performance("sr", "V/us", "positive slew rate (I_tail / CC)"),
    Performance("power", "mW", "static supply power"),
)

_SPECS = (
    Spec("a0", ">=", 80.0),
    Spec("ft", ">=", 1.3),
    Spec("pm", ">=", 60.0),
    Spec("sr", ">=", 3.0),
    Spec("power", "<=", 1.3),
)

#: All transistors and their polarities (for global-variation application).
_POLARITIES = {"M1": 1, "M2": 1, "M3": -1, "M4": -1, "M5": 1, "M6": -1,
               "M7": 1, "M8": 1}


class MillerOpamp(OpampTemplate):
    """The Fig.-8 benchmark circuit as a sizing problem."""

    name = "miller"
    saturation_devices = ("M1", "M2", "M3", "M4", "M5", "M6", "M7")

    def __init__(self, process: Process = GENERIC035):
        super().__init__(process, _DESIGN_PARAMETERS, _PERFORMANCES, _SPECS,
                         _POLARITIES, {})

    # -- design equations -----------------------------------------------------
    def bias_current_estimate(self, d: Mapping[str, float],
                              vdd: float) -> float:
        """First-order estimate of the M8 bias current (for RZ sizing)."""
        vgs8 = -self.process.nmos.vto * -1 + 0.25  # ~ vth_n + overdrive
        return max((vdd - vgs8) / d["rb"], 1e-7)

    def nulling_resistance(self, d: Mapping[str, float],
                           vdd: float) -> float:
        """RZ ~ 1/gm6 from the square-law design equations."""
        i6 = self.bias_current_estimate(d, vdd) * d["w7"] / DIODE_W
        kp = self.process.pmos.kp
        gm6 = math.sqrt(max(2.0 * kp * (d["w6"] / d["l6"]) * i6, 1e-18))
        return 1.0 / gm6

    # -- netlist ----------------------------------------------------------------
    def build(self, d: Mapping[str, float], pv: PhysicalVariations,
              theta: Mapping[str, float]) -> Circuit:
        vdd = theta["vdd"]
        vcm = INPUT_VCM_FRACTION * vdd
        nmos = self.process.nmos
        pmos = self.process.pmos
        ckt = Circuit("miller-opamp")
        ckt.vsource("VDD", "vdd", "0", dc=vdd)

        # Bias branch: RB from the supply into the diode-connected M8.
        # Resistors carry the global sheet-resistance variation.
        res_factor = pv.resistance_factor
        ckt.resistor("RB", "vdd", "nbias", d["rb"] * res_factor)
        self.add_mosfet(ckt, pv, "M8", "nbias", "nbias", "0", "0",
                        nmos, w=DIODE_W, l=d["l5"])

        # First stage.
        self.add_mosfet(ckt, pv, "M5", "tail", "nbias", "0", "0",
                        nmos, w=d["w5"], l=d["l5"])
        self.add_mosfet(ckt, pv, "M1", "d1", "inn", "tail", "0",
                        nmos, w=d["w1"], l=d["l1"])
        self.add_mosfet(ckt, pv, "M2", "d2", "inp", "tail", "0",
                        nmos, w=d["w1"], l=d["l1"])
        self.add_mosfet(ckt, pv, "M3", "d1", "d1", "vdd", "vdd",
                        pmos, w=d["w3"], l=d["l3"])
        self.add_mosfet(ckt, pv, "M4", "d2", "d1", "vdd", "vdd",
                        pmos, w=d["w3"], l=d["l3"])

        # Second stage with Miller compensation.
        self.add_mosfet(ckt, pv, "M6", "out", "d2", "vdd", "vdd",
                        pmos, w=d["w6"], l=d["l6"])
        self.add_mosfet(ckt, pv, "M7", "out", "nbias", "0", "0",
                        nmos, w=d["w7"], l=d["l5"])
        rz = self.nulling_resistance(d, vdd)
        ckt.resistor("RZ", "d2", "zc", rz * res_factor)
        ckt.capacitor("CC", "zc", "out", d["cc"])
        ckt.capacitor("CL", "out", "0", LOAD_CAPACITANCE)

        add_openloop_bench(ckt, inp="inp", inn="inn", out="out", vcm=vcm)
        return ckt

    # -- extraction ----------------------------------------------------------------
    def extract(self, bench: OpenLoopOpampBench, d: Mapping[str, float],
                theta: Mapping[str, float],
                performances: Optional[Collection[str]] = None
                ) -> Dict[str, float]:
        return measure_requested(performances, {
            "a0": bench.a0_db,
            "ft": lambda: bench.ft_hz() / 1e6,
            "pm": bench.pm_deg,
            # positive slew: CC charged by the tail current
            "sr": lambda: abs(bench.op.op("M5")["ids"]) / d["cc"] / 1e6,
            "power": lambda: bench.supply_power(theta["vdd"]) * 1e3,
        })
