"""Five-transistor OTA — a compact teaching/benchmark circuit.

Not part of the paper's evaluation, but a standard first analog sizing
problem that exercises every part of the library on a smaller scale, and
additionally demonstrates a *noise* specification (input-referred thermal
+ flicker noise at 100 kHz) driven by the built-in noise analysis:

* ``M1/M2``  NMOS input differential pair,
* ``M3/M4``  PMOS current-mirror load (single-ended output at M4's drain),
* ``M5``     NMOS tail source, mirrored from the diode ``MB`` biased by a
  supply-referred resistor,
* 2 pF load.

Performances: ``a0`` [dB], ``ft`` [MHz], ``cmrr`` [dB], ``sr`` [V/us],
``power`` [mW], ``noise`` [nV/sqrt(Hz), input-referred at 100 kHz].
Both global and local variations are modelled.
"""

from __future__ import annotations

import math
from typing import Collection, Dict, List, Mapping, Optional, Tuple

from ..circuit.netlist import Circuit
from ..circuit.noise import input_referred_density, solve_noise
from ..evaluation.measure import OpenLoopOpampBench, add_openloop_bench
from ..evaluation.template import DesignParameter, measure_requested
from ..pdk.generic035 import GENERIC035
from ..pdk.process import Process
from ..spec.specification import Performance, Spec
from ..statistics.space import (DeviceGeometry, LocalVariation,
                                PhysicalVariations, StatisticalSpace)
from .base import OpampTemplate, default_operating_range

LOAD_CAPACITANCE = 2e-12
DIODE_W = 20e-6
NOISE_FREQUENCY = 100e3
INPUT_VCM_FRACTION = 0.42

_DESIGN_PARAMETERS = (
    DesignParameter("w1", 5e-6, 200e-6, 50e-6),    # input pair width
    DesignParameter("l1", 0.35e-6, 5e-6, 1.0e-6),  # input pair length
    DesignParameter("w3", 5e-6, 200e-6, 25e-6),    # mirror load width
    DesignParameter("l3", 0.35e-6, 5e-6, 1.0e-6),  # mirror load length
    DesignParameter("w5", 5e-6, 300e-6, 40e-6),    # tail width
    DesignParameter("l5", 0.35e-6, 5e-6, 1.0e-6),  # tail/mirror length
    DesignParameter("rb", 3e4, 5e5, 6e4, unit="Ohm"),  # bias resistor
)

_PERFORMANCES = (
    Performance("a0", "dB", "open-loop DC gain"),
    Performance("ft", "MHz", "unity-gain (transit) frequency"),
    Performance("cmrr", "dB", "common-mode rejection ratio"),
    Performance("sr", "V/us", "positive slew rate (I_tail / CL)"),
    Performance("power", "mW", "static supply power"),
    Performance("noise", "nV/rtHz",
                "input-referred noise density at 100 kHz"),
)

_SPECS = (
    Spec("a0", ">=", 38.0),
    Spec("ft", ">=", 25.0),
    Spec("cmrr", ">=", 55.0),
    Spec("sr", ">=", 15.0),
    Spec("power", "<=", 1.0),
    Spec("noise", "<=", 25.0),
)

_DEVICES: Dict[str, Tuple[int, str, str]] = {
    "M1": (1, "w1", "l1"),
    "M2": (1, "w1", "l1"),
    "M3": (-1, "w3", "l3"),
    "M4": (-1, "w3", "l3"),
    "M5": (1, "w5", "l5"),
}

_POLARITIES = {**{k: v[0] for k, v in _DEVICES.items()}, "MB": 1}

MATCHED_PAIRS = (("M1", "M2"), ("M3", "M4"))


def _local_variations() -> Tuple[LocalVariation, ...]:
    variations: List[LocalVariation] = []
    for device, (polarity, w_name, l_name) in _DEVICES.items():
        geometry = DeviceGeometry(w=w_name, l=l_name)
        variations.append(LocalVariation(
            name=f"dvt_{device}", device=device, kind="vth",
            polarity=polarity, geometry=geometry))
        variations.append(LocalVariation(
            name=f"dbeta_{device}", device=device, kind="beta",
            polarity=polarity, geometry=geometry))
    return tuple(variations)


class FiveTransistorOta(OpampTemplate):
    """The classic 5T OTA as a sizing problem with a noise spec."""

    name = "five-transistor-ota"
    saturation_devices = ("M1", "M2", "M3", "M4", "M5")

    def __init__(self, process: Process = GENERIC035,
                 with_local: bool = True, with_global: bool = True):
        self.process = process
        space = StatisticalSpace(
            process,
            local_variations=_local_variations() if with_local else (),
            with_global=with_global,
            device_polarities=_POLARITIES)
        super().__init__(_DESIGN_PARAMETERS, _PERFORMANCES, _SPECS,
                         default_operating_range(), space)

    def build(self, d: Mapping[str, float], pv: PhysicalVariations,
              theta: Mapping[str, float]) -> Circuit:
        vdd = theta["vdd"]
        vcm = INPUT_VCM_FRACTION * vdd
        nmos = self.process.nmos
        pmos = self.process.pmos
        ckt = Circuit("five-transistor-ota")
        ckt.vsource("VDD", "vdd", "0", dc=vdd)
        ckt.resistor("RB", "vdd", "nbias", d["rb"] * pv.resistance_factor)
        self.add_mosfet(ckt, pv, "MB", "nbias", "nbias", "0", "0",
                        nmos, w=DIODE_W, l=d["l5"])
        self.add_mosfet(ckt, pv, "M5", "tail", "nbias", "0", "0",
                        nmos, w=d["w5"], l=d["l5"])
        # M2 drains into the output, so its gate is the *inverting*
        # input (the bench closes the feedback loop on "inn").
        self.add_mosfet(ckt, pv, "M1", "d1", "inp", "tail", "0",
                        nmos, w=d["w1"], l=d["l1"])
        self.add_mosfet(ckt, pv, "M2", "out", "inn", "tail", "0",
                        nmos, w=d["w1"], l=d["l1"])
        self.add_mosfet(ckt, pv, "M3", "d1", "d1", "vdd", "vdd",
                        pmos, w=d["w3"], l=d["l3"])
        self.add_mosfet(ckt, pv, "M4", "out", "d1", "vdd", "vdd",
                        pmos, w=d["w3"], l=d["l3"])
        ckt.capacitor("CL", "out", "0", LOAD_CAPACITANCE)
        add_openloop_bench(ckt, inp="inp", inn="inn", out="out", vcm=vcm)
        return ckt

    def extract(self, bench: OpenLoopOpampBench, d: Mapping[str, float],
                theta: Mapping[str, float],
                performances: Optional[Collection[str]] = None
                ) -> Dict[str, float]:
        def noise() -> float:
            adm = abs(bench.differential_gain(NOISE_FREQUENCY))
            result = solve_noise(bench.circuit, bench.op, "out",
                                 [NOISE_FREQUENCY], temp_c=theta["temp"])
            input_density = input_referred_density(result, adm)[0]
            return math.sqrt(input_density) * 1e9

        return measure_requested(performances, {
            "a0": bench.a0_db,
            "ft": lambda: bench.ft_hz() / 1e6,
            "cmrr": bench.cmrr_db,
            "sr": lambda: abs(bench.op.op("M5")["ids"])
            / LOAD_CAPACITANCE / 1e6,
            "power": lambda: bench.supply_power(theta["vdd"]) * 1e3,
            "noise": noise,
        })

    def local_vth_names(self) -> List[str]:
        """Names of the local threshold parameters."""
        return [lv.name for lv in self.statistical_space.local_variations
                if lv.kind == "vth"]
