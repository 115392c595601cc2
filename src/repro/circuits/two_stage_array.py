"""Two-stage amplifier with a segmented output array — the large
benchmark circuit for the sparse MNA backend.

Architecturally a Miller opamp scaled to a realistic layout-extracted
size: the clean two-stage core is surrounded by the parasitic networks
that a production netlist drags along, which is exactly what pushes the
MNA system past the break-even point of the sparse factorization-reusing
backend (:mod:`repro.circuit.linsolve`):

* ``M5``        NMOS tail current source (mirrored from the diode ``MB``),
* ``M1/M2``     NMOS input differential pair (matched, Pelgrom locals),
* ``M3/M4``     PMOS current-mirror load (matched, Pelgrom locals),
* ``MP1..MPn``  segmented PMOS output drivers — one multi-finger device
  laid out as ``N_SEGMENTS`` parallel segments, each with its own source
  ballast resistor and a per-segment RC snubber ladder,
* ``MN1..MNn``  the matching segmented NMOS output sinks (mirrored from
  ``MB``), also ballasted per segment,
* ``CC``/``RZ`` Miller compensation across the second stage,
* an RC supply-decoupling ladder (``SUPPLY_SECTIONS`` sections) feeding
  the bias branch,
* an RC gate-distribution ladder spreading the first-stage output across
  the segment driver gates,
* a distributed RC output load line (``LOAD_SECTIONS`` sections)
  terminated by the load capacitor.

All parasitic ladders are series-R/shunt-C, so they carry **no DC
current**: the operating point equals the clean two-stage core's and the
homotopy chain converges as readily as on the small templates, while the
MNA system grows to ~260 unknowns (``assert_large()`` checks the >= 120
floor that makes the auto backend pick sparse).

Statistical model: global process variations plus **local (mismatch)
variations restricted to the two matched pairs that dominate offset and
CMRR** — the input pair ``M1/M2`` and the mirror load ``M3/M4`` (vth and
beta each, Pelgrom sigmas bound to the design geometry).  Keeping the
local space at 8 dimensions keeps worst-case searches affordable on a
circuit this size.

Performances: ``a0`` [dB], ``ft`` [MHz], ``cmrr`` [dB], ``sr`` [V/us],
``power`` [mW].
"""

from __future__ import annotations

from typing import Collection, Dict, List, Mapping, Optional, Tuple

from ..circuit.netlist import Circuit
from ..evaluation.measure import OpenLoopOpampBench, add_openloop_bench
from ..evaluation.template import DesignParameter, measure_requested
from ..pdk.generic035 import GENERIC035
from ..pdk.process import Process
from ..spec.specification import Performance, Spec
from ..statistics.space import (DeviceGeometry, LocalVariation,
                                PhysicalVariations, StatisticalSpace)
from .base import OpampTemplate, default_operating_range

#: Output-stage segmentation (parallel fingers of the drivers/sinks).
N_SEGMENTS = 8
#: RC sections of the supply-decoupling ladder feeding the bias branch.
SUPPLY_SECTIONS = 40
#: RC sections of the distributed output load line.
LOAD_SECTIONS = 390
#: RC sections of each per-segment output snubber ladder.
SNUB_SECTIONS = 4

#: Fixed elements.
LOAD_CAPACITANCE = 20e-12
DIODE_W = 20e-6        # bias diode MB width
BIAS_L = 1.0e-6        # bias diode / tail / sink length
DRIVER_L = 1.0e-6      # segment driver length
RB = 120e3             # bias resistor
RZ = 2.0e3             # Miller nulling resistor
INPUT_VCM_FRACTION = 0.45

#: Parasitic element values (per section / per segment).
R_SUPPLY, C_SUPPLY = 2.0, 5e-12       # supply ladder section
R_GATE, C_GATE = 30.0, 50e-15         # gate-distribution section
R_BALLAST = 15.0                      # segment source ballast
R_MERGE = 5.0                         # segment drain merge resistor
R_SNUB, C_SNUB = 25.0, 200e-15        # snubber ladder section
# Output load line: fixed lumped totals discretized over LOAD_SECTIONS,
# so refining the line grows the MNA system without moving the AC
# response (or any measured performance).
R_LINE_TOTAL, C_LINE_TOTAL = 70.0, 8.4e-12
R_LINE = R_LINE_TOTAL / LOAD_SECTIONS
C_LINE = C_LINE_TOTAL / LOAD_SECTIONS

_DESIGN_PARAMETERS = (
    DesignParameter("w1", 5e-6, 200e-6, 40e-6),    # input pair width
    DesignParameter("l1", 0.35e-6, 5e-6, 1.0e-6),  # input pair length
    DesignParameter("w3", 5e-6, 200e-6, 25e-6),    # mirror load width
    DesignParameter("l3", 0.35e-6, 5e-6, 1.0e-6),  # mirror load length
    DesignParameter("w5", 5e-6, 300e-6, 30e-6),    # tail width
    DesignParameter("wp", 5e-6, 300e-6, 30e-6),    # driver width/segment
    DesignParameter("wn", 5e-6, 300e-6, 18e-6),    # sink width/segment
    DesignParameter("cc", 2e-12, 40e-12, 12e-12, unit="F"),  # Miller cap
)

_PERFORMANCES = (
    Performance("a0", "dB", "open-loop DC gain"),
    Performance("ft", "MHz", "unity-gain (transit) frequency"),
    Performance("cmrr", "dB", "common-mode rejection ratio"),
    Performance("sr", "V/us", "positive slew rate (I_tail / CC)"),
    Performance("power", "mW", "static supply power"),
)

_SPECS = (
    Spec("a0", ">=", 75.0),
    Spec("ft", ">=", 3.0),
    Spec("cmrr", ">=", 70.0),
    Spec("sr", ">=", 1.5),
    Spec("power", "<=", 2.5),
)

#: Matched pairs carrying local variations, with their geometry binding.
_LOCAL_DEVICES: Dict[str, Tuple[int, str, str]] = {
    "M1": (1, "w1", "l1"),
    "M2": (1, "w1", "l1"),
    "M3": (-1, "w3", "l3"),
    "M4": (-1, "w3", "l3"),
}

#: All transistors (incl. bias + segments) for global variations.
_POLARITIES = {
    "M1": 1, "M2": 1, "M3": -1, "M4": -1, "M5": 1, "MB": 1,
    **{f"MP{k}": -1 for k in range(1, N_SEGMENTS + 1)},
    **{f"MN{k}": 1 for k in range(1, N_SEGMENTS + 1)},
}

#: The matched pairs of the topology (for tests and reporting).
MATCHED_PAIRS = (("M1", "M2"), ("M3", "M4"))


def _local_variations() -> Tuple[LocalVariation, ...]:
    """vth + beta locals for the two matched pairs only (see module
    docstring), with Pelgrom sigmas bound to the design geometry."""
    variations: List[LocalVariation] = []
    for device, (polarity, w_name, l_name) in _LOCAL_DEVICES.items():
        geometry = DeviceGeometry(w=w_name, l=l_name)
        variations.append(LocalVariation(
            name=f"dvt_{device}", device=device, kind="vth",
            polarity=polarity, geometry=geometry))
        variations.append(LocalVariation(
            name=f"dbeta_{device}", device=device, kind="beta",
            polarity=polarity, geometry=geometry))
    return tuple(variations)


class TwoStageArrayOpamp(OpampTemplate):
    """The segmented-output two-stage amplifier as a sizing problem."""

    name = "two-stage-array"
    saturation_devices = ("M1", "M2", "M3", "M4", "M5", "MP1", "MN1")

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

    # -- netlist ----------------------------------------------------------------
    def build(self, d: Mapping[str, float], pv: PhysicalVariations,
              theta: Mapping[str, float]) -> Circuit:
        vdd = theta["vdd"]
        vcm = INPUT_VCM_FRACTION * vdd
        nmos = self.process.nmos
        pmos = self.process.pmos
        rf = pv.resistance_factor
        ckt = Circuit("two-stage-array-opamp")
        ckt.vsource("VDD", "vdd", "0", dc=vdd)

        # Supply-decoupling RC ladder: vdd -> sf1 -> ... -> sfN; the bias
        # branch hangs off the filtered end, so the only DC current in
        # the ladder is the (small) bias current.
        prev = "vdd"
        for k in range(1, SUPPLY_SECTIONS + 1):
            node = f"sf{k}"
            ckt.resistor(f"RSF{k}", prev, node, R_SUPPLY * rf)
            ckt.capacitor(f"CSF{k}", node, "0", C_SUPPLY)
            prev = node
        vddf = prev
        ckt.resistor("RB", vddf, "nbias", RB * rf)
        self.add_mosfet(ckt, pv, "MB", "nbias", "nbias", "0", "0",
                        nmos, w=DIODE_W, l=BIAS_L)

        # First stage: NMOS pair, PMOS mirror load (M3 diode).
        self.add_mosfet(ckt, pv, "M5", "tail", "nbias", "0", "0",
                        nmos, w=d["w5"], l=BIAS_L)
        self.add_mosfet(ckt, pv, "M1", "x1", "inn", "tail", "0",
                        nmos, w=d["w1"], l=d["l1"])
        self.add_mosfet(ckt, pv, "M2", "x2", "inp", "tail", "0",
                        nmos, w=d["w1"], l=d["l1"])
        self.add_mosfet(ckt, pv, "M3", "x1", "x1", "vdd", "vdd",
                        pmos, w=d["w3"], l=d["l3"])
        self.add_mosfet(ckt, pv, "M4", "x2", "x1", "vdd", "vdd",
                        pmos, w=d["w3"], l=d["l3"])

        # Miller compensation across the second stage.
        ckt.resistor("RZ", "x2", "zc", RZ * rf)
        ckt.capacitor("CC", "zc", "out", d["cc"])

        # Gate-distribution ladder: the first-stage output snakes across
        # the driver gates of the output array (no DC drop: gates + caps).
        gate = "x2"
        for k in range(1, N_SEGMENTS + 1):
            node = f"g{k}"
            ckt.resistor(f"RG{k}", gate, node, R_GATE * rf)
            ckt.capacitor(f"CG{k}", node, "0", C_GATE)
            gate = node

        # Segmented output stage: per segment a ballasted PMOS driver, a
        # ballasted NMOS sink (mirrored from MB), a drain merge resistor
        # into the shared output, and an RC snubber ladder.
        for k in range(1, N_SEGMENTS + 1):
            seg = f"o{k}"
            ckt.resistor(f"RBP{k}", "vdd", f"vsp{k}", R_BALLAST * rf)
            self.add_mosfet(ckt, pv, f"MP{k}", seg, f"g{k}", f"vsp{k}",
                            "vdd", pmos, w=d["wp"], l=DRIVER_L)
            ckt.resistor(f"RBN{k}", f"vsn{k}", "0", R_BALLAST * rf)
            self.add_mosfet(ckt, pv, f"MN{k}", seg, "nbias", f"vsn{k}",
                            "0", nmos, w=d["wn"], l=BIAS_L)
            ckt.resistor(f"RM{k}", seg, "out", R_MERGE * rf)
            prev = seg
            for j in range(1, SNUB_SECTIONS + 1):
                node = f"sn{k}_{j}"
                ckt.resistor(f"RSN{k}_{j}", prev, node, R_SNUB * rf)
                ckt.capacitor(f"CSN{k}_{j}", node, "0", C_SNUB)
                prev = node

        # Distributed output load line, terminated by the load capacitor.
        prev = "out"
        for k in range(1, LOAD_SECTIONS + 1):
            node = f"ld{k}"
            ckt.resistor(f"RLD{k}", prev, node, R_LINE * rf)
            ckt.capacitor(f"CLD{k}", node, "0", C_LINE)
            prev = node
        ckt.capacitor("CL", prev, "0", LOAD_CAPACITANCE)

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
            # CC slewed by the tail current
            "sr": lambda: abs(bench.op.op("M5")["ids"]) / d["cc"] / 1e6,
            "power": lambda: bench.supply_power(theta["vdd"]) * 1e3,
        })

    # -- conveniences ----------------------------------------------------------------
    def local_vth_names(self) -> List[str]:
        """Names of the local threshold parameters (mismatch-analysis
        candidates)."""
        return [lv.name for lv in self.statistical_space.local_variations
                if lv.kind == "vth"]

    def nominal_mna_size(self) -> int:
        """MNA unknown count of the nominal netlist (used by tests and
        benchmarks to confirm the template sits in sparse territory)."""
        space = self.statistical_space
        d = self.initial_design()
        pv = space.to_physical(d, space.nominal())
        circuit = self.build(d, pv, self.operating_range.nominal())
        return circuit.layout().size

    def assert_large(self) -> None:
        """Fail loudly if a refactor shrinks the netlist below the
        sparse auto-selection floor this template exists to exercise."""
        from ..circuit.linsolve import AUTO_SPARSE_MIN_NODES
        size = self.nominal_mna_size()
        if size < AUTO_SPARSE_MIN_NODES:
            raise AssertionError(
                f"two-stage-array MNA size {size} fell below the sparse "
                f"auto-selection floor {AUTO_SPARSE_MIN_NODES}")
