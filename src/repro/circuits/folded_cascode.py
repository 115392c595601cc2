"""Folded-cascode operational amplifier — Fig. 7 of the paper.

Single-ended folded cascode with PMOS input pair:

* ``M0``       PMOS tail current source (mirrored from the diode ``MBP``),
* ``M1/M2``    PMOS input differential pair (pair **P?** candidates),
* ``M3/M4``    NMOS folding current sinks (mirrored from ``MBN``),
* ``M5/M6``    NMOS cascodes (gate bias ``vcn`` from a two-diode stack),
* ``M7/M8``    PMOS cascodes (gate bias ``vcp`` from a high-overdrive
  diode, giving the cascode-mirror loop its headroom),
* ``M9/M10``   PMOS cascode current mirror (gates at the ``cas1`` node),
* supply-referred resistor bias branches (so bias currents vary with
  supply, temperature, and the global sheet-resistance spread),
* 2 pF load.

Following the paper (Sec. 6, Table 1), this template models **local
(mismatch) and global** variations: every core transistor carries a local
threshold and gain-factor variation whose sigma follows the Pelgrom law
``sigma ~ 1/sqrt(W L)`` of the *current design point* — the design-
dependent covariance ``C(d)`` that motivates the Sec. 4 transform.

Performances: ``a0`` [dB], ``ft`` [MHz], ``cmrr`` [dB], ``sr`` [V/us],
``power`` [mW]; specs follow Table 1: A0 > 40 dB, ft > 40 MHz,
CMRR > 80 dB, SR > 35 V/us, Power < 3.5 mW.
"""

from __future__ import annotations

from typing import Collection, Dict, Mapping, Optional, Tuple, Union

from ..circuit.netlist import Circuit
from ..evaluation.measure import OpenLoopOpampBench, add_openloop_bench
from ..evaluation.template import DesignParameter, measure_requested
from ..pdk.generic035 import GENERIC035
from ..pdk.process import Process
from ..spec.specification import Performance, Spec
from ..statistics.space import PhysicalVariations
from .base import OpampTemplate

#: Fixed elements.
LOAD_CAPACITANCE = 2e-12
CASCODE_LENGTH = 0.7e-6
BIAS_PMOS_W = 40e-6  # MBP diode
BIAS_NMOS_W = 20e-6  # MBN diode
RPB = 30e3
RNB = 30e3
RCN = 80e3
RCP = 75e3
INPUT_VCM_FRACTION = 0.45

_DESIGN_PARAMETERS = (
    DesignParameter("w0", 10e-6, 300e-6, 42.5e-6),  # tail width
    DesignParameter("l0", 0.35e-6, 5e-6, 1.0e-6),   # tail length
    DesignParameter("w1", 5e-6, 300e-6, 46e-6),     # input pair width
    DesignParameter("l1", 0.35e-6, 5e-6, 1.0e-6),   # input pair length
    DesignParameter("w3", 5e-6, 300e-6, 13.4e-6),   # folding sink width
    DesignParameter("l3", 0.35e-6, 5e-6, 0.7e-6),   # folding sink length
    DesignParameter("w5", 5e-6, 300e-6, 30e-6),     # NMOS cascode width
    DesignParameter("w7", 5e-6, 300e-6, 40e-6),     # PMOS cascode width
    DesignParameter("w9", 5e-6, 300e-6, 20e-6),     # mirror width
    DesignParameter("l9", 0.35e-6, 5e-6, 0.5e-6),   # mirror length
)

_PERFORMANCES = (
    Performance("a0", "dB", "open-loop DC gain"),
    Performance("ft", "MHz", "unity-gain (transit) frequency"),
    Performance("cmrr", "dB", "common-mode rejection ratio"),
    Performance("sr", "V/us", "positive slew rate (I_tail / CL)"),
    Performance("power", "mW", "static supply power"),
)

_SPECS = (
    Spec("a0", ">=", 40.0),
    Spec("ft", ">=", 40.0),
    Spec("cmrr", ">=", 80.0),
    Spec("sr", ">=", 35.0),
    Spec("power", "<=", 3.5),
)

#: Core transistors (all carry local variations): polarity and geometry
#: binding (design-parameter names, or the fixed cascode length).
_DEVICES: Dict[str, Tuple[int, str, Union[str, float]]] = {
    "M0": (-1, "w0", "l0"),
    "M1": (-1, "w1", "l1"),
    "M2": (-1, "w1", "l1"),
    "M3": (1, "w3", "l3"),
    "M4": (1, "w3", "l3"),
    "M5": (1, "w5", CASCODE_LENGTH),
    "M6": (1, "w5", CASCODE_LENGTH),
    "M7": (-1, "w7", CASCODE_LENGTH),
    "M8": (-1, "w7", CASCODE_LENGTH),
    "M9": (-1, "w9", "l9"),
    "M10": (-1, "w9", "l9"),
}

#: All transistors (incl. bias) for global-variation application.
_POLARITIES = {
    **{name: pol for name, (pol, _, _) in _DEVICES.items()},
    "MBP": -1, "MBN": 1, "MC1": 1, "MC2": 1, "MC3": -1,
}

#: The matched pairs of the topology (used by tests and reporting; the
#: mismatch *analysis* does not know them — it must find them).
MATCHED_PAIRS = (("M1", "M2"), ("M3", "M4"), ("M5", "M6"), ("M7", "M8"),
                 ("M9", "M10"))


class FoldedCascodeOpamp(OpampTemplate):
    """The Fig.-7 benchmark circuit as a sizing problem."""

    name = "folded-cascode"
    saturation_devices = ("M0", "M1", "M2", "M3", "M4", "M5", "M6", "M7",
                          "M8", "M9", "M10")

    def __init__(self, process: Process = GENERIC035,
                 with_local: bool = True, with_global: bool = True):
        super().__init__(process, _DESIGN_PARAMETERS, _PERFORMANCES, _SPECS,
                         _POLARITIES, _DEVICES if with_local else {},
                         with_global)

    # -- netlist ----------------------------------------------------------------
    def build(self, d: Mapping[str, float], pv: PhysicalVariations,
              theta: Mapping[str, float]) -> Circuit:
        vdd = theta["vdd"]
        vcm = INPUT_VCM_FRACTION * vdd
        nmos = self.process.nmos
        pmos = self.process.pmos
        rf = pv.resistance_factor
        ckt = Circuit("folded-cascode-opamp")
        ckt.vsource("VDD", "vdd", "0", dc=vdd)

        # Bias branches (supply-referred resistors + mirror diodes).
        ckt.resistor("RPB", "pbias", "0", RPB * rf)
        self.add_mosfet(ckt, pv, "MBP", "pbias", "pbias", "vdd", "vdd",
                        pmos, w=BIAS_PMOS_W, l=1e-6)
        ckt.resistor("RNB", "vdd", "nbias", RNB * rf)
        self.add_mosfet(ckt, pv, "MBN", "nbias", "nbias", "0", "0",
                        nmos, w=BIAS_NMOS_W, l=1e-6)

        # Cascode gate biases: vth-tracking diode stacks.
        ckt.resistor("RCN", "vdd", "vcn", RCN * rf)
        self.add_mosfet(ckt, pv, "MC1", "vcn", "vcn", "xn", "0",
                        nmos, w=10e-6, l=1e-6)
        self.add_mosfet(ckt, pv, "MC2", "xn", "xn", "0", "0",
                        nmos, w=10e-6, l=1e-6)
        ckt.resistor("RCP", "vcp", "0", RCP * rf)
        self.add_mosfet(ckt, pv, "MC3", "vcp", "vcp", "vdd", "vdd",
                        pmos, w=1.2e-6, l=1e-6)

        # Input stage.
        self.add_mosfet(ckt, pv, "M0", "tail", "pbias", "vdd", "vdd",
                        pmos, w=d["w0"], l=d["l0"])
        self.add_mosfet(ckt, pv, "M1", "fold1", "inp", "tail", "vdd",
                        pmos, w=d["w1"], l=d["l1"])
        self.add_mosfet(ckt, pv, "M2", "fold2", "inn", "tail", "vdd",
                        pmos, w=d["w1"], l=d["l1"])

        # Folding sinks and cascodes.
        self.add_mosfet(ckt, pv, "M3", "fold1", "nbias", "0", "0",
                        nmos, w=d["w3"], l=d["l3"])
        self.add_mosfet(ckt, pv, "M4", "fold2", "nbias", "0", "0",
                        nmos, w=d["w3"], l=d["l3"])
        self.add_mosfet(ckt, pv, "M5", "cas1", "vcn", "fold1", "0",
                        nmos, w=d["w5"], l=CASCODE_LENGTH)
        self.add_mosfet(ckt, pv, "M6", "out", "vcn", "fold2", "0",
                        nmos, w=d["w5"], l=CASCODE_LENGTH)

        # Cascoded PMOS mirror load (gates of M9/M10 at cas1).
        self.add_mosfet(ckt, pv, "M7", "cas1", "vcp", "mir1", "vdd",
                        pmos, w=d["w7"], l=CASCODE_LENGTH)
        self.add_mosfet(ckt, pv, "M8", "out", "vcp", "mir2", "vdd",
                        pmos, w=d["w7"], l=CASCODE_LENGTH)
        self.add_mosfet(ckt, pv, "M9", "mir1", "cas1", "vdd", "vdd",
                        pmos, w=d["w9"], l=d["l9"])
        self.add_mosfet(ckt, pv, "M10", "mir2", "cas1", "vdd", "vdd",
                        pmos, w=d["w9"], l=d["l9"])

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
            "cmrr": bench.cmrr_db,
            # output slewed by the tail current
            "sr": lambda: abs(bench.op.op("M0")["ids"])
            / LOAD_CAPACITANCE / 1e6,
            "power": lambda: bench.supply_power(theta["vdd"]) * 1e3,
        })
