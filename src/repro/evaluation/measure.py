"""Opamp measurement testbench helpers.

High-gain opamps cannot be operating-point-solved open loop — any offset
rails the output.  The classic characterization trick (used by production
analog decks, and here) closes the feedback path through a *huge inductor*
and couples the small-signal drive through a *huge capacitor*:

* at DC the inductor is a short -> unity-gain feedback biases the output
  near the input common mode even under mismatch,
* at every analysis frequency of interest the inductor is effectively open
  and the capacitor a short -> the measured transfer is the open-loop gain.

:class:`OpenLoopOpampBench` runs the standard measurement set on such a
testbench: differential gain A0, transit frequency f_t, phase margin,
common-mode gain / CMRR, supply power.  Each is its own method and
memoizes what it shares with the others (the 1 Hz gains, f_t), so a
template measures only what a request needs.  Templates build the
netlist (core + bench elements) and delegate the extraction here.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..circuit.ac import (AcSystem, phase_margin, shared_matrix_transfers,
                          unity_gain_frequency, warm_unity_crossing)
from ..circuit.dc import DCResult, solve_dc
from ..circuit.devices import Vsource
from ..circuit.netlist import Circuit
from ..errors import ExtractionError
from ..units import db

#: Feedback inductor / coupling capacitor for the DC-closed, AC-open loop.
FEEDBACK_INDUCTANCE = 1e9
COUPLING_CAPACITANCE = 1.0

#: Frequency at which "DC" gains are measured.  Low enough to sit on the
#: gain plateau of any opamp in this package, high enough that the bench
#: reactances are ideal.
GAIN_MEASURE_HZ = 1.0

#: Log10 tolerance of the transit-frequency search at the measurement
#: layer: f_t to 0.001 % relative — orders of magnitude below both the
#: spec granularity and the f_t shift of any mismatch sample, at roughly
#: two-thirds the solve count of the solver default.
UGF_TOL = 1e-5

#: Half-width (as a frequency ratio) of the warm-started unity-gain
#: bracket around an anchor's transit frequency.  2x each side covers
#: many sigma of mismatch-induced f_t shift; a miss falls back to the
#: full sweep, so the hint can only cost solves, never correctness.
WARM_FT_SPAN = 2.0


def add_openloop_bench(circuit: Circuit, inp: str, inn: str, out: str,
                       vcm: float) -> None:
    """Attach the open-loop bench elements to an opamp core.

    Drives ``inp`` from source ``VIP`` directly and ``inn`` from source
    ``VIN`` through the coupling capacitor, and closes ``out -> inn`` with
    the feedback inductor.  Both sources sit at the common-mode voltage
    ``vcm`` at DC.
    """
    circuit.vsource("VIP", inp, "0", dc=vcm, ac=0.0)
    circuit.vsource("VIN", "_vin_src", "0", dc=vcm, ac=0.0)
    circuit.capacitor("CIN", "_vin_src", inn, COUPLING_CAPACITANCE)
    circuit.inductor("LFB", out, inn, FEEDBACK_INDUCTANCE)


class OpenLoopOpampBench:
    """Measurement driver for a circuit built with
    :func:`add_openloop_bench`."""

    def __init__(self, circuit: Optional[Circuit], out: str = "out",
                 supply_source: str = "VDD", temp_c: float = 27.0,
                 x0=None, ft_hint: Optional[float] = None,
                 linsolve=None, dc_effort=None):
        self._circuit = circuit
        self.out = out
        self.supply_source = supply_source
        self.temp_c = temp_c
        #: linear-solver backend spec for the DC solve and all AC systems
        #: (``None``/``"auto"`` selects by node count; see
        #: :mod:`repro.circuit.linsolve`)
        self.linsolve = linsolve
        #: optional Newton warm start for the DC solve (a nearby operating
        #: point, e.g. a cached anchor solution); the solver falls back to
        #: the full homotopy chain when it does not converge from here
        self.x0 = x0
        #: optional transit-frequency estimate (e.g. the anchor cell's
        #: f_t) used to bracket the unity-gain search tightly; a bracket
        #: miss falls back to the full sweep
        self.ft_hint = ft_hint
        #: optional :class:`repro.circuit.dc.DcEffort` counter bundle the
        #: lazy DC solve reports its winning strategy into
        self.dc_effort = dc_effort
        self._op: Optional[DCResult] = None
        self._systems: dict = {}
        self._gains: Optional[Tuple[float, float]] = None
        self._ft: Optional[float] = None

    @property
    def circuit(self) -> Circuit:
        """The testbench netlist."""
        return self._circuit

    @property
    def op(self) -> DCResult:
        """The (lazily solved) DC operating point."""
        if self._op is None:
            self._op = solve_dc(self.circuit, temp_c=self.temp_c,
                                x0=self.x0, backend=self.linsolve,
                                effort=self.dc_effort)
        return self._op

    def _system(self, ac_p: complex, ac_n: complex) -> AcSystem:
        """Assembled AC system for one input drive (cached per drive)."""
        key = (ac_p, ac_n)
        system = self._systems.get(key)
        if system is None:
            vip = self.circuit.device("VIP")
            vin = self.circuit.device("VIN")
            assert isinstance(vip, Vsource) and isinstance(vin, Vsource)
            vip.ac = ac_p
            vin.ac = ac_n
            if self._systems:
                # (G, B) are drive-independent: re-stamp only the rhs.
                base = next(iter(self._systems.values()))
                system = base.with_drives()
            else:
                system = AcSystem(self.circuit, self.op,
                                  backend=self.linsolve)
            self._systems[key] = system
        return system

    def differential_gain(self, freq: float = GAIN_MEASURE_HZ) -> complex:
        """Open-loop differential gain at ``freq`` (+0.5 / -0.5 drive)."""
        return self._system(0.5, -0.5).transfer(self.out, freq)

    def common_mode_gain(self, freq: float = GAIN_MEASURE_HZ) -> complex:
        """Open-loop common-mode gain at ``freq`` (+1 / +1 drive)."""
        return self._system(1.0, 1.0).transfer(self.out, freq)

    def gains(self) -> Tuple[float, float]:
        """``(|A_dm|, |A_cm|)`` at :data:`GAIN_MEASURE_HZ` (memoized).

        The differential and common-mode benches share (G, B) — only the
        source drives (rhs) differ — so both gains come from one
        factorization (bitwise identical to two separate solves).  Raises
        :class:`ExtractionError` when the differential gain is zero (a
        dead circuit)."""
        if self._gains is None:
            h_dm, h_cm = shared_matrix_transfers(
                [self._system(0.5, -0.5), self._system(1.0, 1.0)],
                self.out, GAIN_MEASURE_HZ)
            adm = abs(h_dm)
            if adm <= 0.0:
                raise ExtractionError(
                    "differential gain is zero; dead circuit?")
            self._gains = (adm, abs(h_cm))
        return self._gains

    def a0_db(self) -> float:
        """Open-loop differential gain A0 [dB]."""
        return db(self.gains()[0])

    def cmrr_db(self, floor_db: float = 0.0) -> float:
        """Common-mode rejection ratio [dB].  ``floor_db`` guards the
        pathological case of a dead circuit whose differential gain is
        below its common-mode gain."""
        adm, acm = self.gains()
        cmrr_db = db(adm / acm) if acm > 0.0 else 200.0
        return max(cmrr_db, floor_db)

    def ft_hz(self) -> float:
        """Transit frequency [Hz] (memoized); 0 when the differential
        gain at :data:`GAIN_MEASURE_HZ` does not exceed one."""
        if self._ft is None:
            self._ft = self.transit_frequency() \
                if self.gains()[0] > 1.0 else 0.0
        return self._ft

    def pm_deg(self) -> float:
        """Phase margin at the transit frequency [degrees]; 0 without
        one."""
        ft_hz = self.ft_hz()
        return self.phase_margin(ft_hz) if ft_hz > 0.0 else 0.0

    def transit_frequency(self) -> float:
        """Unity-gain frequency of the differential path [Hz]."""
        system = self._system(0.5, -0.5)
        if self.ft_hint is not None and self.ft_hint > 0.0:
            try:
                # Tight hinted bracket: the Illinois secant refiner needs
                # ~5 solves where the sectioned sweep needs ~30.
                return warm_unity_crossing(
                    system, self.out, f_lo=self.ft_hint / WARM_FT_SPAN,
                    f_hi=self.ft_hint * WARM_FT_SPAN, tol=UGF_TOL)
            except ExtractionError:
                pass  # the crossing moved outside the warm bracket
        return unity_gain_frequency(system, self.out, tol=UGF_TOL)

    def phase_margin(self, ft_hz: Optional[float] = None) -> float:
        """Phase margin of the differential path [degrees]."""
        return phase_margin(self._system(0.5, -0.5), self.out,
                            f_unity=ft_hz)

    def supply_power(self, vdd: float) -> float:
        """Static power drawn from the supply source [W]."""
        current = self.op.source_current(self.supply_source)
        return abs(current * vdd)


class AssembledBench(OpenLoopOpampBench):
    """An :class:`OpenLoopOpampBench` over an already solved operating
    point — one Monte-Carlo row of the sample-batched engine.

    ``op`` is the row's :class:`DCResult`.  ``systems()`` assembles the
    row's :class:`AcSystem` per drive — differential ``(0.5, -0.5)`` and
    common-mode ``(1.0, 1.0)`` — from arrays captured with the row, so
    every measurement runs the scalar code on them; it is called on the
    first AC measurement only, so a row measured for operating-point
    values alone assembles none.  ``circuit`` is built on first access
    by ``build()`` (the noise analysis reads device values from it)."""

    def __init__(self, op: DCResult,
                 systems: Callable[[], Dict[tuple, AcSystem]],
                 build: Callable[[], Circuit], **bench):
        super().__init__(None, **bench)
        self._op = op
        self._assemble = systems
        self._build = build

    @property
    def circuit(self) -> Circuit:
        if self._circuit is None:
            self._circuit = self._build()
        return self._circuit

    def _system(self, ac_p: complex, ac_n: complex) -> AcSystem:
        if not self._systems:
            self._systems = self._assemble()
        return self._systems[(ac_p, ac_n)]
