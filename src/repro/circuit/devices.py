"""Circuit device library: stamps for the MNA formulation.

Every device knows how to *stamp* itself into the modified-nodal-analysis
(MNA) matrix for the three analyses this package supports:

* ``stamp_dc``       — large-signal companion model at a candidate
  solution ``x`` (Newton iteration),
* ``stamp_ac_parts`` — small-signal stamp around the stored operating
  point, split into the frequency-independent ``G`` and ``B`` of
  ``(G + j*omega*B) x = rhs``,
* ``stamp_tran``     — backward-Euler companion model for one time step.

The stamping target is a :class:`Stamper`, a thin wrapper over a dense
matrix/vector pair that ignores the ground index ``-1``.  Devices never see
global node numbering directly; the solver hands them a resolved index list
in terminal order plus their branch-current indices.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import NetlistError
from .mos import MosEval, MosModel, evaluate_nmos, intrinsic_capacitances


class Stamper:
    """Dense MNA matrix/right-hand-side accumulator.

    Row/column index ``-1`` denotes the ground node and is silently
    discarded, which keeps device stamping code free of ground special
    cases.
    """

    def __init__(self, size: int, dtype=float):
        self.size = size
        self.matrix = np.zeros((size, size), dtype=dtype)
        self.rhs = np.zeros(size, dtype=dtype)

    def add(self, row: int, col: int, value) -> None:
        """Accumulate ``value`` into ``matrix[row, col]`` unless grounded."""
        if row >= 0 and col >= 0:
            self.matrix[row, col] += value

    def add_rhs(self, row: int, value) -> None:
        """Accumulate ``value`` into ``rhs[row]`` unless grounded."""
        if row >= 0:
            self.rhs[row] += value

    def add_conductance(self, a: int, b: int, g) -> None:
        """Stamp a two-terminal conductance ``g`` between nodes ``a``/``b``."""
        self.add(a, a, g)
        self.add(b, b, g)
        self.add(a, b, -g)
        self.add(b, a, -g)


def _voltage(x: np.ndarray, index: int) -> float:
    """Solution-vector lookup treating ground (-1) as 0 V."""
    return 0.0 if index < 0 else float(x[index])


class Device:
    """Base class for all circuit elements.

    Attributes
    ----------
    name:
        Unique instance name within a circuit (e.g. ``"M1"``).
    nodes:
        Terminal node names, in the device's canonical terminal order.
    n_branches:
        Number of extra MNA unknowns (branch currents) this device needs.
    """

    n_branches = 0
    linear = True

    def __init__(self, name: str, nodes: Sequence[str]):
        if not name:
            raise NetlistError("device name must be non-empty")
        self.name = name
        self.nodes = tuple(str(n) for n in nodes)

    # -- stamping interface ------------------------------------------------
    def stamp_dc(self, st: Stamper, x: np.ndarray, nodes: Sequence[int],
                 branches: Sequence[int]) -> None:
        raise NotImplementedError

    def stamp_ac_parts(self, st_g: Stamper, st_b: Stamper,
                       nodes: Sequence[int], branches: Sequence[int],
                       op: Optional[dict]) -> None:
        """Frequency-split AC stamp: the small-signal system is
        ``(G + j*omega*B) x = rhs`` with both G and B frequency-independent,
        so the AC engine assembles them once per operating point and solves
        cheaply per frequency.  ``st_g`` receives the conductance part and
        the AC source values, ``st_b`` the susceptance-slope part
        (capacitances, inductances).  Default: resistive devices stamp
        their DC pattern into G only."""
        self.stamp_dc(st_g, np.zeros(0), nodes, branches)

    def stamp_tran(self, st: Stamper, x: np.ndarray, nodes: Sequence[int],
                   branches: Sequence[int], state: dict, h: float,
                   t: float) -> None:
        """Default transient behaviour: identical to DC (resistive)."""
        self.stamp_dc(st, x, nodes, branches)

    # -- analysis support ---------------------------------------------------
    def prepare(self, temp_c: float) -> None:
        """Hook called once before a DC solve; temperature-dependent devices
        refresh their cached model here."""

    def operating_point(self, x: np.ndarray, nodes: Sequence[int],
                        branches: Sequence[int]) -> Optional[dict]:
        """Return an operating-point record for this device, or ``None`` for
        devices without interesting bias information."""
        return None

    def init_state(self, x: np.ndarray, nodes: Sequence[int],
                   branches: Sequence[int], state: dict) -> None:
        """Initialize transient integration state from the DC solution."""

    def update_state(self, x: np.ndarray, nodes: Sequence[int],
                     branches: Sequence[int], state: dict) -> None:
        """Commit the accepted time-step solution into the state dict."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} {self.nodes}>"


class Resistor(Device):
    """Linear resistor between two nodes."""

    def __init__(self, name: str, a: str, b: str, resistance: float):
        super().__init__(name, (a, b))
        if resistance <= 0:
            raise NetlistError(f"resistor {name}: resistance must be positive")
        self.resistance = float(resistance)

    def stamp_dc(self, st, x, nodes, branches):
        st.add_conductance(nodes[0], nodes[1], 1.0 / self.resistance)

    def operating_point(self, x, nodes, branches):
        v = _voltage(x, nodes[0]) - _voltage(x, nodes[1])
        i = v / self.resistance
        return {"v": v, "i": i, "power": v * i}


class Capacitor(Device):
    """Linear capacitor: open at DC, ``j*omega*C`` at AC, backward-Euler
    companion in transient."""

    def __init__(self, name: str, a: str, b: str, capacitance: float,
                 ic: Optional[float] = None):
        super().__init__(name, (a, b))
        if capacitance < 0:
            raise NetlistError(f"capacitor {name}: capacitance must be >= 0")
        self.capacitance = float(capacitance)
        self.ic = ic  # optional initial voltage for transient

    def stamp_dc(self, st, x, nodes, branches):
        pass  # open circuit

    def stamp_ac_parts(self, st_g, st_b, nodes, branches, op):
        st_b.add_conductance(nodes[0], nodes[1], self.capacitance)

    def init_state(self, x, nodes, branches, state):
        if self.ic is not None:
            state["v"] = float(self.ic)
        else:
            state["v"] = _voltage(x, nodes[0]) - _voltage(x, nodes[1])

    def stamp_tran(self, st, x, nodes, branches, state, h, t):
        geq = self.capacitance / h
        ieq = geq * state["v"]
        st.add_conductance(nodes[0], nodes[1], geq)
        st.add_rhs(nodes[0], ieq)
        st.add_rhs(nodes[1], -ieq)

    def update_state(self, x, nodes, branches, state):
        state["v"] = _voltage(x, nodes[0]) - _voltage(x, nodes[1])


class Inductor(Device):
    """Linear inductor: a short at DC (0 V branch), ``j*omega*L`` at AC.

    The huge-inductor idiom (``L ~ 1 GH``) is used by the opamp testbenches
    to close the feedback loop at DC while leaving it open at all analysis
    frequencies — see :mod:`repro.evaluation.testbench`.
    """

    n_branches = 1

    def __init__(self, name: str, a: str, b: str, inductance: float):
        super().__init__(name, (a, b))
        if inductance <= 0:
            raise NetlistError(f"inductor {name}: inductance must be positive")
        self.inductance = float(inductance)

    def _stamp_branch(self, st, nodes, branches):
        j = branches[0]
        st.add(nodes[0], j, 1.0)
        st.add(nodes[1], j, -1.0)
        st.add(j, nodes[0], 1.0)
        st.add(j, nodes[1], -1.0)

    def stamp_dc(self, st, x, nodes, branches):
        self._stamp_branch(st, nodes, branches)  # v_a - v_b = 0

    def stamp_ac_parts(self, st_g, st_b, nodes, branches, op):
        self._stamp_branch(st_g, nodes, branches)
        st_b.add(branches[0], branches[0], -self.inductance)

    def init_state(self, x, nodes, branches, state):
        state["i"] = _voltage(x, branches[0])

    def stamp_tran(self, st, x, nodes, branches, state, h, t):
        # v = L * di/dt  ->  v - (L/h) i = -(L/h) i_prev
        self._stamp_branch(st, nodes, branches)
        req = self.inductance / h
        st.add(branches[0], branches[0], -req)
        st.add_rhs(branches[0], -req * state["i"])

    def update_state(self, x, nodes, branches, state):
        state["i"] = _voltage(x, branches[0])


class Vsource(Device):
    """Independent voltage source with DC value, AC magnitude and an
    optional transient waveform ``waveform(t) -> volts``."""

    n_branches = 1

    def __init__(self, name: str, p: str, n: str, dc: float = 0.0,
                 ac: complex = 0.0,
                 waveform: Optional[Callable[[float], float]] = None):
        super().__init__(name, (p, n))
        self.dc = float(dc)
        self.ac = complex(ac)
        self.waveform = waveform
        #: homotopy scale applied by the source-stepping solver
        self.scale = 1.0

    def _stamp_branch(self, st, nodes, branches, value):
        j = branches[0]
        st.add(nodes[0], j, 1.0)
        st.add(nodes[1], j, -1.0)
        st.add(j, nodes[0], 1.0)
        st.add(j, nodes[1], -1.0)
        st.add_rhs(j, value)

    def stamp_dc(self, st, x, nodes, branches):
        self._stamp_branch(st, nodes, branches, self.dc * self.scale)

    def stamp_ac_parts(self, st_g, st_b, nodes, branches, op):
        self._stamp_branch(st_g, nodes, branches, self.ac)

    def stamp_tran(self, st, x, nodes, branches, state, h, t):
        value = self.waveform(t) if self.waveform is not None else self.dc
        self._stamp_branch(st, nodes, branches, value)


class Isource(Device):
    """Independent current source; positive current flows from ``p`` through
    the source to ``n`` (i.e. it is pulled out of node ``p``)."""

    def __init__(self, name: str, p: str, n: str, dc: float = 0.0,
                 ac: complex = 0.0,
                 waveform: Optional[Callable[[float], float]] = None):
        super().__init__(name, (p, n))
        self.dc = float(dc)
        self.ac = complex(ac)
        self.waveform = waveform
        self.scale = 1.0

    def _stamp(self, st, nodes, value):
        st.add_rhs(nodes[0], -value)
        st.add_rhs(nodes[1], value)

    def stamp_dc(self, st, x, nodes, branches):
        self._stamp(st, nodes, self.dc * self.scale)

    def stamp_ac_parts(self, st_g, st_b, nodes, branches, op):
        self._stamp(st_g, nodes, self.ac)

    def stamp_tran(self, st, x, nodes, branches, state, h, t):
        value = self.waveform(t) if self.waveform is not None else self.dc
        self._stamp(st, nodes, value)


class Vcvs(Device):
    """Voltage-controlled voltage source (SPICE ``E`` element):
    ``v(p) - v(n) = gain * (v(cp) - v(cn))``."""

    n_branches = 1

    def __init__(self, name: str, p: str, n: str, cp: str, cn: str,
                 gain: float):
        super().__init__(name, (p, n, cp, cn))
        self.gain = float(gain)

    def stamp_dc(self, st, x, nodes, branches):
        p, n, cp, cn = nodes
        j = branches[0]
        st.add(p, j, 1.0)
        st.add(n, j, -1.0)
        st.add(j, p, 1.0)
        st.add(j, n, -1.0)
        st.add(j, cp, -self.gain)
        st.add(j, cn, self.gain)


class Vccs(Device):
    """Voltage-controlled current source (SPICE ``G`` element): a current
    ``gm * (v(cp) - v(cn))`` flows from ``p`` through the source to ``n``."""

    def __init__(self, name: str, p: str, n: str, cp: str, cn: str,
                 gm: float):
        super().__init__(name, (p, n, cp, cn))
        self.gm = float(gm)

    def stamp_dc(self, st, x, nodes, branches):
        p, n, cp, cn = nodes
        st.add(p, cp, self.gm)
        st.add(p, cn, -self.gm)
        st.add(n, cp, -self.gm)
        st.add(n, cn, self.gm)


#: The quantities of a transistor's operating-point record, in order;
#: the record closes with ``sat_margin = vds - vdsat``.
OP_KEYS = ("ids", "gm", "gds", "gmb", "vgs", "vds", "vbs", "vth", "vdsat",
           "vov", "region", "swapped", "cgs", "cgd", "cdb", "csb")


class Mosfet(Device):
    """Four-terminal MOS transistor (drain, gate, source, bulk).

    Large-signal behaviour comes from :func:`repro.circuit.mos.evaluate_nmos`
    through polarity reflection (PMOS) and automatic source/drain swap for
    reverse bias.  Statistical perturbations enter through ``delta_vto``
    (threshold shift, in the direction that weakens the device for either
    polarity) and ``beta_factor`` (multiplicative gain-factor variation).
    """

    linear = False

    def __init__(self, name: str, d: str, g: str, s: str, b: str,
                 model: MosModel, w: float, l: float, m: int = 1,
                 delta_vto: float = 0.0, beta_factor: float = 1.0):
        super().__init__(name, (d, g, s, b))
        if w <= 0 or l <= 0:
            raise NetlistError(f"mosfet {name}: W and L must be positive")
        if m < 1:
            raise NetlistError(f"mosfet {name}: multiplier must be >= 1")
        self.model = model
        self.w = float(w)
        self.l = float(l)
        self.m = int(m)
        self.delta_vto = float(delta_vto)
        self.beta_factor = float(beta_factor)
        self._model_t = model  # refreshed by prepare()

    def prepare(self, temp_c: float) -> None:
        self._model_t = self.model.at_temperature(temp_c).perturbed(
            self.delta_vto, self.beta_factor)

    def _evaluate(self, x: np.ndarray, nodes: Sequence[int]
                  ) -> tuple[MosEval, bool, float, float, float]:
        """Evaluate the reflected/swapped model at the solution ``x``.

        Returns ``(eval, swapped, vgs, vds, vbs)`` where the voltages are
        the *polarity-reflected* terminal voltages actually fed to the NMOS
        equations.
        """
        model = self._model_t
        pol = model.polarity
        vd = _voltage(x, nodes[0])
        vg = _voltage(x, nodes[1])
        vs = _voltage(x, nodes[2])
        vb = _voltage(x, nodes[3])
        vds = pol * (vd - vs)
        swapped = vds < 0.0
        if swapped:
            vd, vs = vs, vd
            vds = -vds
        vgs = pol * (vg - vs)
        vbs = pol * (vb - vs)
        ev = evaluate_nmos(model, self.w * self.m, self.l, vgs, vds, vbs)
        return ev, swapped, vgs, vds, vbs

    @staticmethod
    def effective_nodes(nodes: Sequence[int], swapped: bool) -> tuple:
        """The ``(drain, gate, source, bulk)`` indices the stamps use:
        drain and source exchange when the device is reverse biased."""
        nd, ng, ns, nb = nodes
        return (ns, ng, nd, nb) if swapped else (nd, ng, ns, nb)

    @staticmethod
    def _stamp_conductances(st, nd, ng, ns, nb, gm, gds, gmb, gsum):
        """The ``gm``/``gds``/``gmb`` block between the effective drain,
        gate, source and bulk nodes, shared by the Newton Jacobian and
        the AC ``G`` part."""
        st.add(nd, ng, gm)
        st.add(nd, nd, gds)
        st.add(nd, nb, gmb)
        st.add(nd, ns, -gsum)
        st.add(ns, ng, -gm)
        st.add(ns, nd, -gds)
        st.add(ns, nb, -gmb)
        st.add(ns, ns, gsum)

    @staticmethod
    def conductance_sum(gm, gds, gmb):
        """``gsum`` of the conductance block, for the scalar stamps and
        (on arrays) the sample-batched engine."""
        return gm + gds + gmb

    @staticmethod
    def equivalent_current(pol, ids, gm, gds, gmb, gsum, vd, vg, vs, vb):
        """The Newton companion's equivalent current ``ieq`` at the
        effective terminal voltages: the real-frame drain current
        ``pol * ids`` less its linearization (polarity reflection cancels
        in the conductances, pol^2 = 1, but not in the current)."""
        return pol * ids - (gm * vg + gds * vd + gmb * vb - gsum * vs)

    @staticmethod
    def op_record(*values) -> dict:
        """The operating-point record of one transistor from its
        :data:`OP_KEYS` values, shared by :meth:`operating_point` and the
        sample-batched engine's rows."""
        record = dict(zip(OP_KEYS, values))
        record["sat_margin"] = record["vds"] - record["vdsat"]
        return record

    def stamp_companion(self, st, nd, ng, ns, nb, gm, gds, gmb, gsum, ieq):
        """The Newton companion stamp between the effective terminals:
        the conductance block plus the equivalent current ``ieq``
        (``stamp_dc`` calls it at the model's values, the sample-batched
        plan at probe values to record its triplets)."""
        self._stamp_conductances(st, nd, ng, ns, nb, gm, gds, gmb, gsum)
        st.add_rhs(nd, -ieq)
        st.add_rhs(ns, ieq)

    def stamp_dc(self, st, x, nodes, branches):
        ev, swapped, vgs, vds, vbs = self._evaluate(x, nodes)
        nd, ng, ns, nb = self.effective_nodes(nodes, swapped)
        gm, gds, gmb = ev.gm, ev.gds, ev.gmb
        gsum = self.conductance_sum(gm, gds, gmb)
        ieq = self.equivalent_current(
            self._model_t.polarity, ev.ids, gm, gds, gmb, gsum,
            _voltage(x, nd), _voltage(x, ng), _voltage(x, ns),
            _voltage(x, nb))
        self.stamp_companion(st, nd, ng, ns, nb, gm, gds, gmb, gsum, ieq)

    def stamp_ac_parts(self, st_g, st_b, nodes, branches, op):
        if op is None:
            raise NetlistError(
                f"mosfet {self.name}: AC stamp requires an operating point")
        nd, ng, ns, nb = self.effective_nodes(nodes, op["swapped"])
        gm, gds, gmb = op["gm"], op["gds"], op["gmb"]
        self._stamp_conductances(st_g, nd, ng, ns, nb, gm, gds, gmb,
                                 self.conductance_sum(gm, gds, gmb))
        st_b.add_conductance(ng, ns, op["cgs"])
        st_b.add_conductance(ng, nd, op["cgd"])
        st_b.add_conductance(nd, nb, op["cdb"])
        st_b.add_conductance(ns, nb, op["csb"])

    def operating_point(self, x, nodes, branches):
        ev, swapped, vgs, vds, vbs = self._evaluate(x, nodes)
        return self.op_record(
            ev.ids, ev.gm, ev.gds, ev.gmb, vgs, vds, vbs, ev.vth, ev.vdsat,
            ev.vov, ev.region, swapped,
            *intrinsic_capacitances(self._model_t, self.w * self.m, self.l,
                                    ev.region))

    def stamp_tran(self, st, x, nodes, branches, state, h, t):
        # Nonlinear resistive part; intrinsic capacitances are attached by
        # the transient engine as fixed companions evaluated at t = 0.
        self.stamp_dc(st, x, nodes, branches)
