"""Sample-batched MNA evaluation (structure-of-arrays over Monte-Carlo rows).

A verification Monte-Carlo evaluates one fixed topology at many
statistical samples: every sample's circuit differs from its neighbours
only in a handful of *values* — per-device threshold shifts, gain-factor
scalings and the global sheet-resistance factor — never in structure.
The serial path nevertheless rebuilds the netlist, re-stamps the MNA
system and re-runs the scalar device model per sample.

This module exploits the shared structure.  :class:`SampleBatchPlan`

* builds the circuit **twice** — once at the nominal statistical point
  (the *prototype*) and once at a synthetic *probe* point with distinct
  per-device perturbations — and verifies by comparison that the builder
  maps statistical variations the way the batch engine assumes (resistors
  scale linearly with the resistance factor, MOSFETs track their own
  ``delta_vto``/``beta_factor``, everything else is invariant).  Any
  builder that deviates raises :class:`BatchUnsupported` and the caller
  falls back to the serial path — the probe can only *disable* batching,
  never corrupt results;
* captures the prototype's exact stamp-call sequences (DC base, AC
  ``(G, B)``) as triplet descriptors whose values are per-sample arrays;
* runs the DC homotopy chain over all samples through the same driver
  as the scalar solver (:func:`repro.circuit.dc.homotopy_chain`), with a
  grouped-signature kernel (:meth:`SampleBatchPlan._stage`) that
  evaluates every MOSFET once per Newton iteration for the whole active
  batch (:func:`repro.circuit.mos.evaluate_nmos_stacked`); gmin enters
  only the stamped diagonal and the source-stepping scale only the
  re-accumulated rhs.  Damping, convergence and escalation are the
  driver's, per sample.  Only a singular matrix or an exhausted chain
  hands a sample back for the serial fallback, whose identical failure
  reproduces the serial error classification exactly.

Parity contract: every assembly step mirrors the serial code
operation-for-operation (same accumulation order, same association, same
library calls), and the Newton rule is the serial one itself, so batched
results are **bitwise identical** to the serial per-sample loop — not
merely close.  The test suite asserts exact equality.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SingularMatrixError
from .ac import AcSystem
from .dc import DCResult, GMIN_FINAL, homotopy_chain
from .devices import (Capacitor, Inductor, Isource, Mosfet, Resistor, Vcvs,
                      Vccs, Vsource)
from .linsolve import (DenseAcEngine, SparseAcEngine, SparsePattern,
                       TripletStamper, resolve_backend)
from .mos import (REGION_NAMES, evaluate_nmos_stacked,
                  intrinsic_capacitances, intrinsic_capacitances_batch)
from .netlist import Circuit

#: Resistance factor of the probe build; a power of two, so a builder
#: computing ``base * factor`` yields exactly ``2 * (base * 1.0)`` and the
#: linearity check is an exact float comparison.
PROBE_RESISTANCE_FACTOR = 2.0


class _RhsRecordingStamper(TripletStamper):
    """Triplet stamper that additionally records every rhs add as
    ``(row, value, scaled)``, in call order.

    The batched kernel re-accumulates the linear rhs per homotopy stage:
    each recorded source add contributes ``value * scale`` (the
    bitwise equal of the serial ``±(dc * scale)`` stamp, since IEEE
    multiplication is sign-magnitude exact) while non-source adds are
    kept verbatim — never a post-sum scaling, which would associate
    differently.
    """

    def __init__(self, size: int):
        super().__init__(size)
        self.rhs_records: List[Tuple[int, float, bool]] = []
        #: set by the capture loop: is the device being stamped an
        #: independent source (its rhs adds carry the homotopy scale)?
        self.rhs_scaled = False

    def add_rhs(self, row: int, value) -> None:
        if row >= 0:
            self.rhs_records.append((row, float(value), self.rhs_scaled))
        super().add_rhs(row, value)


class BatchUnsupported(Exception):
    """Internal signal: this build cannot be batched; use the serial path.

    Deliberately *not* a :class:`~repro.errors.ReproError` — it never
    reaches user code or the fault policy; the evaluation layer catches
    it, logs the reason at DEBUG level and falls back.
    """


def probe_maps(proto: Circuit) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Distinct per-transistor probe perturbations for ``proto``.

    Each MOSFET gets its *own* ``delta_vto``/``beta_factor`` value, so a
    builder that cross-wires device perturbations (device A built with
    device B's variation) produces a detectable mismatch instead of a
    silently wrong batch.
    """
    dvto: Dict[str, float] = {}
    beta: Dict[str, float] = {}
    index = 0
    for dev in proto.devices:
        if isinstance(dev, Mosfet):
            index += 1
            dvto[dev.name] = 0.01 * index
            beta[dev.name] = 1.0 + 0.125 * index
    return dvto, beta


def _mos_adds(nd: int, ng: int, ns: int, nb: int
              ) -> Tuple[List[Tuple[int, int, int, float]],
                         List[Tuple[int, int]]]:
    """The 8 Jacobian adds of ``Mosfet._stamp_conductances`` (the
    conductance block of ``stamp_dc`` and of the G part of
    ``stamp_ac_parts``) + the 2 rhs adds of ``stamp_dc`` for one
    drain/source orientation, with the ground skips applied.  Quantity
    indices: 0=gm 1=gds 2=gmb 3=gsum; rhs sign multiplies ``ieq``."""
    adds = []
    for row, col, qty, sign in (
            (nd, ng, 0, 1.0), (nd, nd, 1, 1.0), (nd, nb, 2, 1.0),
            (nd, ns, 3, -1.0), (ns, ng, 0, -1.0), (ns, nd, 1, -1.0),
            (ns, nb, 2, -1.0), (ns, ns, 3, 1.0)):
        if row >= 0 and col >= 0:
            adds.append((row, col, qty, sign))
    rhs = []
    if nd >= 0:
        rhs.append((nd, -1.0))
    if ns >= 0:
        rhs.append((ns, 1.0))
    return adds, rhs


def _mos_cap_adds(nd: int, ng: int, ns: int, nb: int
                  ) -> List[Tuple[int, int, int, float]]:
    """The B-part adds of ``Mosfet.stamp_ac_parts``: four two-terminal
    capacitances via ``add_conductance``, in call order, ground-skipped.
    Quantity indices: 0=cgs 1=cgd 2=cdb 3=csb."""
    adds = []
    for a, b, qty in ((ng, ns, 0), (ng, nd, 1), (nd, nb, 2), (ns, nb, 3)):
        for row, col, sign in ((a, a, 1.0), (b, b, 1.0),
                               (a, b, -1.0), (b, a, -1.0)):
            if row >= 0 and col >= 0:
                adds.append((row, col, qty, sign))
    return adds


class _MosPlan:
    """Static per-transistor data: reflected model card, effective
    geometry, tracking flags and the stamp descriptors of both
    drain/source orientations."""

    __slots__ = ("name", "index", "nodes", "pol", "model_t", "w_eff", "l",
                 "tracked_vto", "tracked_beta", "cj", "dc_variants",
                 "ac_g_variants", "ac_b_variants", "rhs_variants")

    def __init__(self, index: int, dev: Mosfet, nodes: Sequence[int],
                 temp_c: float, tracked_vto: bool, tracked_beta: bool):
        self.name = dev.name
        self.index = index
        self.nodes = tuple(nodes)
        self.model_t = dev.model.at_temperature(temp_c)
        self.pol = self.model_t.polarity
        self.w_eff = dev.w * dev.m
        self.l = dev.l
        self.tracked_vto = tracked_vto
        self.tracked_beta = tracked_beta
        # junction capacitance, the same in every region
        self.cj = intrinsic_capacitances(self.model_t, self.w_eff, self.l,
                                         "cutoff")[2]
        nd, ng, ns, nb = nodes
        self.dc_variants = {}
        self.rhs_variants = {}
        self.ac_g_variants = {}
        self.ac_b_variants = {}
        for swapped in (False, True):
            ed, es = (ns, nd) if swapped else (nd, ns)
            adds, rhs = _mos_adds(ed, ng, es, nb)
            self.dc_variants[swapped] = adds
            self.rhs_variants[swapped] = rhs
            self.ac_g_variants[swapped] = adds
            self.ac_b_variants[swapped] = _mos_cap_adds(ed, ng, es, nb)


class _SigSpec:
    """Assembled stamp plan for one swap signature: concatenated triplet
    index arrays plus gather maps from per-sample quantity matrices."""

    __slots__ = ("rows", "cols", "n_base", "nl_qty", "nl_mos", "nl_sign",
                 "rhs_rows", "rhs_mos", "rhs_sign", "pattern", "n_g",
                 "g_const", "g_res_slots", "g_res_idx", "g_res_sign",
                 "g_qty", "g_mos", "g_sign", "g_mos_slots",
                 "b_const", "b_qty", "b_mos", "b_sign", "b_mos_slots")


def _match_devices(proto: Circuit, probe: Circuit,
                   probe_dvto: Dict[str, float],
                   probe_beta: Dict[str, float],
                   probe_rf: float) -> Tuple[List[Tuple[Mosfet, bool, bool]],
                                             List[Tuple[Resistor, bool]]]:
    """Verify the probe build differs from the prototype exactly as the
    batch model assumes; return (mosfets, resistors) with tracking flags.

    Raises :class:`BatchUnsupported` on any structural or value mismatch.
    """
    if len(proto.devices) != len(probe.devices):
        raise BatchUnsupported("device count differs between builds")
    mosfets: List[Tuple[Mosfet, bool, bool]] = []
    resistors: List[Tuple[Resistor, bool]] = []
    for a, b in zip(proto.devices, probe.devices):
        if type(a) is not type(b) or a.name != b.name or a.nodes != b.nodes:
            raise BatchUnsupported(f"device {a.name!r} differs structurally")
        if isinstance(a, Resistor):
            if b.resistance == probe_rf * a.resistance:
                resistors.append((a, True))
            elif b.resistance == a.resistance:
                resistors.append((a, False))
            else:
                raise BatchUnsupported(
                    f"resistor {a.name!r} is not linear in the "
                    f"resistance factor")
        elif isinstance(a, Mosfet):
            if (a.w != b.w or a.l != b.l or a.m != b.m
                    or a.model != b.model):
                raise BatchUnsupported(f"mosfet {a.name!r} geometry or "
                                       f"model varies with the sample")
            if a.delta_vto != 0.0 or a.beta_factor != 1.0:
                raise BatchUnsupported(
                    f"mosfet {a.name!r} has non-nominal perturbations in "
                    f"the prototype build")
            if b.delta_vto == probe_dvto.get(a.name):
                tracked_vto = True
            elif b.delta_vto == 0.0:
                tracked_vto = False
            else:
                raise BatchUnsupported(
                    f"mosfet {a.name!r} does not track its own delta_vto")
            if b.beta_factor == probe_beta.get(a.name):
                tracked_beta = True
            elif b.beta_factor == 1.0:
                tracked_beta = False
            else:
                raise BatchUnsupported(
                    f"mosfet {a.name!r} does not track its own beta_factor")
            mosfets.append((a, tracked_vto, tracked_beta))
        elif isinstance(a, Capacitor):
            if a.capacitance != b.capacitance or a.ic != b.ic:
                raise BatchUnsupported(f"capacitor {a.name!r} varies")
        elif isinstance(a, Inductor):
            if a.inductance != b.inductance:
                raise BatchUnsupported(f"inductor {a.name!r} varies")
        elif isinstance(a, (Vsource, Isource)):
            if (a.dc != b.dc or a.ac != b.ac or a.waveform is not None
                    or b.waveform is not None or a.scale != 1.0
                    or b.scale != 1.0):
                raise BatchUnsupported(f"source {a.name!r} varies")
        elif isinstance(a, Vcvs):
            if a.gain != b.gain:
                raise BatchUnsupported(f"vcvs {a.name!r} varies")
        elif isinstance(a, Vccs):
            if a.gm != b.gm:
                raise BatchUnsupported(f"vccs {a.name!r} varies")
        else:
            raise BatchUnsupported(
                f"unsupported device type {type(a).__name__} ({a.name!r})")
    if not mosfets:
        raise BatchUnsupported("no transistors; batching is pointless")
    return mosfets, resistors


class SampleBatchPlan:
    """Structure-of-arrays evaluation plan for one ``(d, theta)`` build.

    Lifecycle: construct once per ``(d, theta)`` (verifies the builder
    and captures stamp sequences), then per chunk of samples call
    :meth:`set_samples` followed by :meth:`solve`; the converged samples'
    :meth:`operating_point` records and :meth:`ac_systems` small-signal
    systems are read from the chunk's finalized arrays.
    """

    def __init__(self, proto: Circuit, probe: Circuit,
                 probe_dvto: Dict[str, float],
                 probe_beta: Dict[str, float],
                 temp_c: float, linsolve=None):
        self.circuit = proto
        self.temp_c = temp_c
        layout = proto.layout()
        self.layout = layout
        self.backend = resolve_backend(linsolve, layout.n_nodes)
        self.sparse = self.backend.name == "sparse"
        mos_pairs, res_pairs = _match_devices(
            proto, probe, probe_dvto, probe_beta, PROBE_RESISTANCE_FACTOR)

        node_of = {dev.name: nodes for dev, nodes
                   in zip(proto.devices, layout.device_nodes)}
        self.mosfets: List[_MosPlan] = [
            _MosPlan(i, dev, node_of[dev.name], temp_c, tv, tb)
            for i, (dev, tv, tb) in enumerate(mos_pairs)]
        self._mos_index = {mp.name: mp for mp in self.mosfets}
        self.n_mos = len(self.mosfets)
        self._build_mos_stack()
        self.resistors: List[Tuple[Resistor, bool, Tuple[int, int]]] = [
            (dev, tracked, node_of[dev.name])
            for dev, tracked in res_pairs]
        self._res_index = {dev.name: j
                           for j, (dev, _, _) in enumerate(self.resistors)}
        self._op_kinds = {mp.name: ("mos", mp.index) for mp in self.mosfets}
        self._op_kinds.update({dev.name: ("res", j) for j, (dev, _, _)
                               in enumerate(self.resistors)})

        self._capture_dc()
        self._capture_ac()
        self._dc_specs: Dict[bytes, _SigSpec] = {}
        self._ac_specs: Dict[bytes, _SigSpec] = {}
        self.n_samples = 0

    # -- capture ---------------------------------------------------------------
    def _capture_dc(self) -> None:
        """Record the linear-device DC stamp sequence of the prototype,
        marking tracked-resistor value slots, and append the gmin
        diagonal exactly where the serial backends put it."""
        layout = self.layout
        st = _RhsRecordingStamper(layout.size)
        res_slots: List[int] = []
        res_idx: List[int] = []
        res_sign: List[float] = []
        for dev, nodes, branches in zip(self.circuit.devices,
                                        layout.device_nodes,
                                        layout.device_branches):
            if not dev.linear:
                continue
            start = len(st.rows)
            st.rhs_scaled = isinstance(dev, (Vsource, Isource))
            dev.stamp_dc(st, np.zeros(0), nodes, branches)
            if isinstance(dev, Resistor):
                j = self._res_index[dev.name]
                if self.resistors[j][1]:  # tracked
                    g = 1.0 / dev.resistance
                    for slot in range(start, len(st.rows)):
                        res_slots.append(slot)
                        res_idx.append(j)
                        res_sign.append(1.0 if st.vals[slot] == g else -1.0)
        n_linear = len(st.rows)
        st.add_diagonal(layout.n_nodes, GMIN_FINAL)
        self._dc_rows = np.asarray(st.rows, dtype=np.intp)
        self._dc_cols = np.asarray(st.cols, dtype=np.intp)
        self._dc_const = np.asarray(st.vals, dtype=float)
        self._dc_n_linear = n_linear
        self._dc_res_slots = np.asarray(res_slots, dtype=np.intp)
        self._dc_res_idx = np.asarray(res_idx, dtype=np.intp)
        self._dc_res_sign = np.asarray(res_sign, dtype=float)
        records = st.rhs_records
        self._dc_rhs_rows = np.asarray([r for r, _, _ in records],
                                       dtype=np.intp)
        self._dc_rhs_vals = np.asarray([v for _, v, _ in records],
                                       dtype=float)
        self._dc_rhs_scaled = np.asarray([s for _, _, s in records],
                                         dtype=bool)

    def _capture_ac(self) -> None:
        """Record the AC ``(G, B)`` stamp sequences (device-interleaved,
        as the engines assemble them), the static source rhs and the
        VIP/VIN drive branch indices."""
        layout = self.layout
        st_g = TripletStamper(layout.size, dtype=complex)
        st_b = TripletStamper(layout.size, dtype=complex)
        g_segments: List[tuple] = []  # ("const", start, end) | ("mos", idx)
        b_segments: List[tuple] = []
        g_res: List[Tuple[int, int, float]] = []  # (slot, res_idx, sign)
        for dev, nodes, branches in zip(self.circuit.devices,
                                        layout.device_nodes,
                                        layout.device_branches):
            if isinstance(dev, Mosfet):
                mp = self._mos_index[dev.name]
                g_segments.append(("mos", mp.index))
                b_segments.append(("mos", mp.index))
                continue
            g_start, b_start = len(st_g.rows), len(st_b.rows)
            dev.stamp_ac_parts(st_g, st_b, nodes, branches, None)
            g_segments.append(("const", g_start, len(st_g.rows)))
            b_segments.append(("const", b_start, len(st_b.rows)))
            if isinstance(dev, Resistor):
                j = self._res_index[dev.name]
                if self.resistors[j][1]:
                    g = 1.0 / dev.resistance
                    for slot in range(g_start, len(st_g.rows)):
                        sign = 1.0 if st_g.vals[slot] == g else -1.0
                        g_res.append((slot, j, sign))
        self._ac_g_segments = g_segments
        self._ac_b_segments = b_segments
        self._ac_g_rows = list(st_g.rows)
        self._ac_g_cols = list(st_g.cols)
        self._ac_g_const = list(st_g.vals)
        self._ac_g_res = g_res
        self._ac_b_rows = list(st_b.rows)
        self._ac_b_cols = list(st_b.cols)
        self._ac_b_const = list(st_b.vals)
        self._ac_rhs_static = st_g.rhs + st_b.rhs
        branch_of = {}
        for dev, branches in zip(self.circuit.devices,
                                 layout.device_branches):
            if isinstance(dev, Vsource) and branches:
                branch_of[dev.name] = branches[0]
        if "VIP" not in branch_of or "VIN" not in branch_of:
            raise BatchUnsupported("bench drive sources VIP/VIN not found")
        self._drive_vip = branch_of["VIP"]
        self._drive_vin = branch_of["VIN"]

    # -- per-chunk sample values -----------------------------------------------
    def set_samples(self, pvs: Sequence) -> None:
        """Load one chunk of physical variations (objects with
        ``delta_vto(name)``/``beta_factor(name)``/``resistance_factor``,
        i.e. :class:`repro.statistics.space.PhysicalVariations`)."""
        n = len(pvs)
        self.n_samples = n
        n_mos = self.n_mos
        vto = np.empty((n, n_mos))
        kp = np.empty((n, n_mos))
        for mp in self.mosfets:
            model_t = mp.model_t
            if mp.tracked_vto:
                dv = np.array([pv.delta_vto(mp.name) for pv in pvs])
                vto[:, mp.index] = model_t.vto + mp.pol * dv
            else:
                vto[:, mp.index] = model_t.vto
            if mp.tracked_beta:
                bf = np.array([pv.beta_factor(mp.name) for pv in pvs])
                kp[:, mp.index] = model_t.kp * bf
            else:
                kp[:, mp.index] = model_t.kp
        self._vto = vto
        self._kp = kp
        rf = np.array([pv.resistance_factor for pv in pvs])
        n_res = len(self.resistors)
        res_r = np.empty((n, n_res))
        for j, (dev, tracked, _) in enumerate(self.resistors):
            res_r[:, j] = dev.resistance * rf if tracked else dev.resistance
        self._res_r = res_r
        self._res_g = 1.0 / res_r if n_res else res_r
        base = np.tile(self._dc_const, (n, 1))
        if self._dc_res_slots.size:
            base[:, self._dc_res_slots] = \
                self._dc_res_sign * self._res_g[:, self._dc_res_idx]
        self._dc_base_vals = base
        self._fin: Optional[dict] = None

    # -- model evaluation -------------------------------------------------------
    def _build_mos_stack(self) -> None:
        """Per-device model-card rows for the stacked transistor
        evaluation: every ``(devices,)`` constant is computed with the
        exact scalar expression the per-device path uses
        (``lambda_ / (l * 1e6)``, ``w / l``), so broadcasting them over
        the sample axis reproduces the scalar
        :func:`~repro.circuit.mos.evaluate_nmos` bit-for-bit."""
        idx = np.zeros((4, self.n_mos), dtype=np.intp)
        gnd = np.zeros((4, self.n_mos), dtype=bool)
        for mp in self.mosfets:
            for t, node in enumerate(mp.nodes):
                if node < 0:
                    gnd[t, mp.index] = True
                else:
                    idx[t, mp.index] = node
        self._mos_node_idx = idx
        self._mos_node_gnd = gnd
        self._mos_pol = np.array([float(mp.pol) for mp in self.mosfets])
        self._mos_phi = np.array([mp.model_t.phi for mp in self.mosfets])
        self._mos_gamma = np.array([mp.model_t.gamma
                                    for mp in self.mosfets])
        self._mos_smoothing = np.array([mp.model_t.smoothing
                                        for mp in self.mosfets])
        self._mos_lam = np.array([mp.model_t.lambda_ / (mp.l * 1e6)
                                  for mp in self.mosfets])
        self._mos_w_over_l = np.array([mp.w_eff / mp.l
                                       for mp in self.mosfets])
        self._mos_cj = np.array([mp.cj for mp in self.mosfets])

    def _eval_mosfets(self, x: np.ndarray, rows: np.ndarray) -> dict:
        """Evaluate every transistor at the solutions ``x`` (shape
        ``(k, size)``) of chunk samples ``rows``; returns ``(k, n_mos)``
        quantity matrices mirroring ``Mosfet._evaluate`` + ``stamp_dc``
        bit-for-bit.

        All devices are evaluated in one stacked
        :func:`evaluate_nmos_stacked` call — the per-device model rows
        broadcast over the sample axis, so per element the arithmetic is
        the scalar model's."""
        idx, gnd = self._mos_node_idx, self._mos_node_gnd
        volts = x[:, idx]  # (k, 4, n_mos) in d/g/s/b terminal order
        if gnd.any():
            volts = np.where(gnd, 0.0, volts)
        vd0, vg0, vs0, vb0 = volts[:, 0], volts[:, 1], volts[:, 2], \
            volts[:, 3]
        pol = self._mos_pol
        vds = pol * (vd0 - vs0)
        swap = vds < 0.0
        vds_eff = np.where(swap, -vds, vds)
        vs_eff = np.where(swap, vd0, vs0)
        vd_eff = np.where(swap, vs0, vd0)
        vgs = pol * (vg0 - vs_eff)
        vbs = pol * (vb0 - vs_eff)
        ev = evaluate_nmos_stacked(
            self._mos_phi, self._mos_gamma, self._mos_smoothing,
            self._mos_lam, self._mos_w_over_l,
            pol * self._vto[rows], self._kp[rows], vgs, vds_eff, vbs)
        gm, gds, gmb = ev["gm"], ev["gds"], ev["gmb"]
        gsum = gm + gds + gmb
        i_d = pol * ev["ids"]
        ieq = i_d - (gm * vg0 + gds * vd_eff + gmb * vb0
                     - gsum * vs_eff)
        return {
            "gm": gm, "gds": gds, "gmb": gmb, "gsum": gsum, "ieq": ieq,
            "ids": ev["ids"], "vgs": vgs, "vds": vds_eff, "vbs": vbs,
            "vth": ev["vth"], "vdsat": ev["vdsat"], "vov": ev["vov"],
            "region": ev["region"].astype(np.intp, copy=False),
            "swapped": swap,
        }

    # -- signature specs ---------------------------------------------------------
    def _dc_spec(self, key: bytes, swaps: np.ndarray) -> _SigSpec:
        spec = self._dc_specs.get(key)
        if spec is not None:
            return spec
        spec = _SigSpec()
        rows = list(self._dc_rows)
        cols = list(self._dc_cols)
        nl_qty: List[int] = []
        nl_mos: List[int] = []
        nl_sign: List[float] = []
        rhs_rows: List[int] = []
        rhs_mos: List[int] = []
        rhs_sign: List[float] = []
        for mp in self.mosfets:
            variant = bool(swaps[mp.index])
            for row, col, qty, sign in mp.dc_variants[variant]:
                rows.append(row)
                cols.append(col)
                nl_qty.append(qty)
                nl_mos.append(mp.index)
                nl_sign.append(sign)
            for row, sign in mp.rhs_variants[variant]:
                rhs_rows.append(row)
                rhs_mos.append(mp.index)
                rhs_sign.append(sign)
        spec.rows = np.asarray(rows, dtype=np.intp)
        spec.cols = np.asarray(cols, dtype=np.intp)
        spec.n_base = self._dc_rows.size
        spec.nl_qty = np.asarray(nl_qty, dtype=np.intp)
        spec.nl_mos = np.asarray(nl_mos, dtype=np.intp)
        spec.nl_sign = np.asarray(nl_sign, dtype=float)
        spec.rhs_rows = np.asarray(rhs_rows, dtype=np.intp)
        spec.rhs_mos = np.asarray(rhs_mos, dtype=np.intp)
        spec.rhs_sign = np.asarray(rhs_sign, dtype=float)
        if self.sparse:
            spec.pattern = SparsePattern(
                spec.rows.astype(np.int32), spec.cols.astype(np.int32),
                self.layout.size)
        else:
            spec.pattern = None
        self._dc_specs[key] = spec
        return spec

    def _ac_spec(self, key: bytes, swaps: np.ndarray) -> _SigSpec:
        spec = self._ac_specs.get(key)
        if spec is not None:
            return spec
        spec = _SigSpec()
        g_rows: List[int] = []
        g_cols: List[int] = []
        g_const: List[complex] = []
        g_res_slots: List[int] = []
        g_res_idx: List[int] = []
        g_res_sign: List[float] = []
        g_mos_slots: List[int] = []
        g_qty: List[int] = []
        g_mos: List[int] = []
        g_sign: List[float] = []
        res_const = {slot: (j, sign) for slot, j, sign in self._ac_g_res}
        for seg in self._ac_g_segments:
            if seg[0] == "const":
                _, start, end = seg
                for slot in range(start, end):
                    pos = len(g_rows)
                    g_rows.append(self._ac_g_rows[slot])
                    g_cols.append(self._ac_g_cols[slot])
                    g_const.append(self._ac_g_const[slot])
                    if slot in res_const:
                        j, sign = res_const[slot]
                        g_res_slots.append(pos)
                        g_res_idx.append(j)
                        g_res_sign.append(sign)
            else:
                mp = self.mosfets[seg[1]]
                for row, col, qty, sign in \
                        mp.ac_g_variants[bool(swaps[mp.index])]:
                    g_mos_slots.append(len(g_rows))
                    g_rows.append(row)
                    g_cols.append(col)
                    g_const.append(0.0)
                    g_qty.append(qty)
                    g_mos.append(mp.index)
                    g_sign.append(sign)
        # The engines stamp the 1e-12 stabilizer diagonal after all
        # devices (sparse: explicit triplets; dense: a diagonal add).
        for i in range(self.layout.n_nodes):
            g_rows.append(i)
            g_cols.append(i)
            g_const.append(1e-12)
        b_rows: List[int] = []
        b_cols: List[int] = []
        b_const: List[complex] = []
        b_mos_slots: List[int] = []
        b_qty: List[int] = []
        b_mos: List[int] = []
        b_sign: List[float] = []
        for seg in self._ac_b_segments:
            if seg[0] == "const":
                _, start, end = seg
                b_rows.extend(self._ac_b_rows[start:end])
                b_cols.extend(self._ac_b_cols[start:end])
                b_const.extend(self._ac_b_const[start:end])
            else:
                mp = self.mosfets[seg[1]]
                for row, col, qty, sign in \
                        mp.ac_b_variants[bool(swaps[mp.index])]:
                    b_mos_slots.append(len(b_rows))
                    b_rows.append(row)
                    b_cols.append(col)
                    b_const.append(0.0)
                    b_qty.append(qty)
                    b_mos.append(mp.index)
                    b_sign.append(sign)
        spec.n_g = len(g_rows)
        spec.rows = np.asarray(g_rows + b_rows, dtype=np.intp)
        spec.cols = np.asarray(g_cols + b_cols, dtype=np.intp)
        spec.g_const = np.asarray(g_const, dtype=complex)
        spec.g_res_slots = np.asarray(g_res_slots, dtype=np.intp)
        spec.g_res_idx = np.asarray(g_res_idx, dtype=np.intp)
        spec.g_res_sign = np.asarray(g_res_sign, dtype=float)
        spec.g_mos_slots = np.asarray(g_mos_slots, dtype=np.intp)
        spec.g_qty = np.asarray(g_qty, dtype=np.intp)
        spec.g_mos = np.asarray(g_mos, dtype=np.intp)
        spec.g_sign = np.asarray(g_sign, dtype=float)
        spec.b_const = np.asarray(b_const, dtype=complex)
        spec.b_mos_slots = np.asarray(b_mos_slots, dtype=np.intp)
        spec.b_qty = np.asarray(b_qty, dtype=np.intp)
        spec.b_mos = np.asarray(b_mos, dtype=np.intp)
        spec.b_sign = np.asarray(b_sign, dtype=float)
        if self.sparse:
            spec.pattern = SparsePattern(
                spec.rows.astype(np.int32), spec.cols.astype(np.int32),
                self.layout.size)
        else:
            spec.pattern = None
        self._ac_specs[key] = spec
        return spec

    # -- lockstep homotopy chain -------------------------------------------------
    def solve(self, x0s: Optional[np.ndarray]
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                         List[Optional[str]]]:
        """Lockstep batched DC homotopy over the loaded chunk: the shared
        chain driver (:func:`repro.circuit.dc.homotopy_chain`) with this
        plan's grouped-signature kernel (:meth:`_stage`).

        ``x0s``: per-sample warm starts, shape ``(n, size)``, or ``None``
        to start at the cold Newton stage (the serial ``solve_dc`` with
        no ``x0``).

        Returns ``(x, iterations, ok, strategy)``; ``strategy[k]`` is
        the winning strategy label for converged samples and ``None``
        for samples with ``ok`` False — a singular matrix at any stage
        (the serial chain raises through) or an exhausted chain — which
        must be re-run through the serial path, whose identical failure
        preserves serial-exact error classification.
        """
        n = self.n_samples
        x, iterations, strategy = homotopy_chain(
            self._stage, n, self.layout.size, self.layout.n_nodes, x0s)
        ok = np.fromiter((label is not None for label in strategy),
                         dtype=bool, count=n)
        self._finalize(x, ok)
        return x, iterations, ok, strategy

    def _stage(self, rows: np.ndarray, gmin: float,
               scale: Optional[float]):
        """Kernel factory of the chain driver for chunk samples ``rows``
        at one ``(gmin, scale)`` stage (``scale`` None: unscaled
        sources).  Each kernel call evaluates the active rows' MOSFETs
        in one stacked pass, groups the rows by drain/source swap
        signature and assembles and solves each group; a singular
        matrix clears the row's ``solved`` flag."""
        size, n_lin = self.layout.size, self._dc_n_linear
        # The linear bases as the serial backends stamp a fresh system
        # per stage: the gmin triplets sit behind the linear stamps, so
        # only their value, not the accumulation order, changes.
        vals = self._dc_base_vals[rows]
        vals[:, n_lin:] = gmin
        mats = None
        if not self.sparse:
            mats = np.zeros((rows.size, size, size))
            np.add.at(mats, (np.arange(rows.size)[:, None],
                             self._dc_rows[None, :n_lin],
                             self._dc_cols[None, :n_lin]), vals[:, :n_lin])
            diag = np.arange(self.layout.n_nodes)
            mats[:, diag, diag] += gmin
        # The linear rhs, re-accumulated add-by-add in the captured stamp
        # order with each source add scaled on its own: bitwise the
        # serial ``±(dc * scale)`` stamps (and at scale 1.0 the unscaled
        # ones).
        rhs = np.zeros(size)
        np.add.at(rhs, self._dc_rhs_rows, np.where(
            self._dc_rhs_scaled,
            self._dc_rhs_vals * (1.0 if scale is None else scale),
            self._dc_rhs_vals))

        def solve(x: np.ndarray, active: np.ndarray):
            quantities = self._eval_mosfets(x, rows[active])
            x_new = np.empty_like(x)
            solved = np.ones(active.size, dtype=bool)
            swaps = quantities["swapped"]
            groups: Dict[bytes, List[int]] = {}
            for i, swap in enumerate(swaps):
                groups.setdefault(np.packbits(swap).tobytes(), []).append(i)
            for key, members in groups.items():
                sel = np.asarray(members, dtype=np.intp)
                grp = active[sel]
                self._assemble_and_solve(
                    self._dc_spec(key, swaps[sel[0]]), vals[grp],
                    None if mats is None else mats[grp], rhs, sel,
                    quantities, x_new, solved)
            return x_new, solved

        return solve

    def _assemble_and_solve(self, spec: _SigSpec, base_vals: np.ndarray,
                            base_mats: Optional[np.ndarray],
                            base_rhs: np.ndarray, local_rows: np.ndarray,
                            quantities: dict, x_new: np.ndarray,
                            solved: np.ndarray) -> None:
        """Assemble and solve the group's linear systems into
        ``x_new[local_rows]``.  ``base_vals``/``base_mats`` are the
        group's gathered copies of the stage's linear bases
        (``base_mats`` is mutated in place) and ``base_rhs`` the stage's
        source rhs.  Samples whose solve fails are flagged in
        ``solved`` for the fallback."""
        k = local_rows.size
        size = self.layout.size
        q_stack = np.stack([quantities["gm"], quantities["gds"],
                            quantities["gmb"], quantities["gsum"]])
        nl_vals = (q_stack[spec.nl_qty[None, :], local_rows[:, None],
                           spec.nl_mos[None, :]]
                   * spec.nl_sign) if spec.nl_qty.size else \
            np.zeros((k, 0))
        rhs_vals = (quantities["ieq"][local_rows][:, spec.rhs_mos]
                    * spec.rhs_sign) if spec.rhs_rows.size else None
        samp = np.arange(k)[:, None]
        if self.sparse:
            # Serial sparse rhs: nonlinear adds accumulate from zero,
            # then base + tail in one elementwise add.
            rhs_nl = np.zeros((k, size))
            if rhs_vals is not None:
                np.add.at(rhs_nl, (samp, spec.rhs_rows[None, :]), rhs_vals)
            vals = np.empty((k, spec.rows.size))
            vals[:, :spec.n_base] = base_vals
            vals[:, spec.n_base:] = nl_vals
            rhs = base_rhs + rhs_nl
            pattern = spec.pattern
            context = (f"circuit {self.circuit.title!r} "
                       f"(floating node or source loop?)")
            for i in range(k):
                try:
                    lu = pattern.factor(pattern.fill(vals[i]), context)
                    x_new[local_rows[i]] = lu.solve(rhs[i])
                except SingularMatrixError:
                    solved[local_rows[i]] = False
        else:
            # Serial dense rhs: nonlinear adds accumulate ON TOP of the
            # base copy (a different association than the sparse path —
            # both are replicated exactly).
            mats = base_mats
            np.add.at(mats, (samp, spec.rows[None, spec.n_base:],
                             spec.cols[None, spec.n_base:]), nl_vals)
            rhs = np.tile(base_rhs, (k, 1))
            if rhs_vals is not None:
                np.add.at(rhs, (samp, spec.rhs_rows[None, :]), rhs_vals)
            try:
                # (k, m, 1) rhs: one LAPACK gesv per slice with a single
                # right-hand side — the same call the scalar path makes.
                x_new[local_rows] = np.linalg.solve(
                    mats, rhs[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                for i in range(k):
                    try:
                        x_new[local_rows[i]] = np.linalg.solve(mats[i],
                                                               rhs[i])
                    except np.linalg.LinAlgError:
                        solved[local_rows[i]] = False

    def _finalize(self, x: np.ndarray, ok: np.ndarray) -> None:
        """Evaluate all operating-point quantities at the converged
        solutions (the batched equivalent of materializing every
        device's ``operating_point`` record)."""
        self._x = x
        self._ok = ok
        rows = np.nonzero(ok)[0]
        fin = {"rows": rows}
        if rows.size:
            quantities = self._eval_mosfets(x[rows], rows)
            cgs = np.empty((rows.size, self.n_mos))
            cgd = np.empty((rows.size, self.n_mos))
            for mp in self.mosfets:
                c_gs, c_gd, _, _ = intrinsic_capacitances_batch(
                    mp.model_t, mp.w_eff, mp.l,
                    quantities["region"][:, mp.index])
                cgs[:, mp.index] = c_gs
                cgd[:, mp.index] = c_gd
            quantities["cgs"] = cgs
            quantities["cgd"] = cgd
            fin.update(quantities)
        self._fin = fin
        self._fin_local = {int(r): i for i, r in enumerate(rows)}

    # -- per-row results ------------------------------------------------------------
    def operating_point(self, k: int, iterations: int,
                        strategy: str) -> DCResult:
        """The :class:`DCResult` of carried chunk sample ``k``, its device
        records read from the finalized arrays (:class:`_RowDCResult`).
        ``strategy`` is the winning homotopy label from :meth:`solve`."""
        return _RowDCResult(self, k, iterations, strategy)

    def ac_systems(self, k: int) -> Dict[tuple, AcSystem]:
        """The small-signal systems of carried chunk sample ``k``, keyed by
        drive as :class:`~repro.evaluation.measure.OpenLoopOpampBench`
        keys them: differential ``(0.5, -0.5)`` and common-mode ``(1.0,
        1.0)``, sharing one ``(G, B)`` (and, on the sparse backend, the
        factorizations).

        The row's ``(G, B)`` values come from the finalized arrays and go
        through its AC swap signature's captured triplet scatter — the
        engines' own stamp order, so the systems are bitwise the ones the
        scalar :class:`~repro.circuit.ac.AcSystem` assembles."""
        i = self._fin_local[k]
        fin = self._fin
        swaps = fin["swapped"][i]
        spec = self._ac_spec(np.packbits(swaps).tobytes(), swaps)
        g_vals = spec.g_const.copy()
        if spec.g_res_slots.size:
            g_vals[spec.g_res_slots] = \
                spec.g_res_sign * self._res_g[k, spec.g_res_idx]
        if spec.g_mos_slots.size:
            qg = np.stack([fin["gm"][i], fin["gds"][i], fin["gmb"][i],
                           fin["gsum"][i]])
            g_vals[spec.g_mos_slots] = \
                qg[spec.g_qty, spec.g_mos] * spec.g_sign
        b_vals = spec.b_const.copy()
        if spec.b_mos_slots.size:
            qb = np.stack([fin["cgs"][i], fin["cgd"][i], self._mos_cj,
                           self._mos_cj])
            b_vals[spec.b_mos_slots] = \
                qb[spec.b_qty, spec.b_mos] * spec.b_sign
        rhs_dm = self._ac_rhs_static.copy()
        rhs_dm[self._drive_vip] += 0.5
        rhs_dm[self._drive_vin] += -0.5
        rhs_cm = self._ac_rhs_static.copy()
        rhs_cm[self._drive_vip] += 1.0
        rhs_cm[self._drive_vin] += 1.0
        n_g = spec.n_g
        if self.sparse:
            vals = np.zeros(spec.rows.size, dtype=complex)
            vals[:n_g] = g_vals
            g_full = spec.pattern.fill(vals)
            vals[:] = 0.0
            vals[n_g:] = b_vals
            engine = SparseAcEngine.assembled(
                self.circuit, self.layout, spec.pattern, g_full,
                spec.pattern.fill(vals), rhs_dm)
        else:
            size = self.layout.size
            g_mat = np.zeros((size, size), dtype=complex)
            np.add.at(g_mat, (spec.rows[:n_g], spec.cols[:n_g]), g_vals)
            b_mat = np.zeros((size, size), dtype=complex)
            np.add.at(b_mat, (spec.rows[n_g:], spec.cols[n_g:]), b_vals)
            engine = DenseAcEngine.assembled(self.circuit, self.layout,
                                             g_mat, b_mat, rhs_dm)
        return {(0.5, -0.5): AcSystem.assembled(self.circuit, self.backend,
                                                engine),
                (1.0, 1.0): AcSystem.assembled(self.circuit, self.backend,
                                               engine.with_rhs(rhs_cm))}


class _RowDCResult(DCResult):
    """:class:`DCResult` of one carried chunk sample whose device records
    are read from the plan's finalized arrays — bitwise the records the
    scalar ``operating_points`` computes.  The arrays are captured at
    construction, so the result stays valid after the plan moves on to
    its next chunk."""

    def __init__(self, plan: SampleBatchPlan, k: int, iterations: int,
                 strategy: str):
        super().__init__(plan.circuit, plan.layout, plan._x[k],
                         plan.temp_c, iterations, strategy)
        self._plan = plan
        self._fin = plan._fin
        self._i = plan._fin_local[k]
        self._res_r = plan._res_r[k]

    def _record(self, name: str) -> Optional[dict]:
        plan = self._plan
        kind = plan._op_kinds.get(name)
        if kind is None:
            return None
        j = kind[1]
        if kind[0] == "res":
            nodes = plan.resistors[j][2]
            x = self.x
            v = (float(x[nodes[0]]) if nodes[0] >= 0 else 0.0) \
                - (float(x[nodes[1]]) if nodes[1] >= 0 else 0.0)
            i_r = v / float(self._res_r[j])
            return {"v": v, "i": i_r, "power": v * i_r}
        fin, i = self._fin, self._i
        vds = float(fin["vds"][i, j])
        vdsat = float(fin["vdsat"][i, j])
        return {
            "ids": float(fin["ids"][i, j]),
            "gm": float(fin["gm"][i, j]),
            "gds": float(fin["gds"][i, j]),
            "gmb": float(fin["gmb"][i, j]),
            "vgs": float(fin["vgs"][i, j]),
            "vds": vds,
            "vbs": float(fin["vbs"][i, j]),
            "vth": float(fin["vth"][i, j]),
            "vdsat": vdsat,
            "vov": float(fin["vov"][i, j]),
            "region": REGION_NAMES[int(fin["region"][i, j])],
            "swapped": bool(fin["swapped"][i, j]),
            "cgs": float(fin["cgs"][i, j]),
            "cgd": float(fin["cgd"][i, j]),
            "cdb": plan.mosfets[j].cj,
            "csb": plan.mosfets[j].cj,
            "sat_margin": vds - vdsat,
        }

    def op(self, device_name: str) -> dict:
        record = self._record(device_name)
        if record is None:
            raise KeyError(f"no operating point for device {device_name!r}")
        return record

    def operating_points(self) -> Dict[str, dict]:
        if self._ops is None:
            self._ops = {}
            for dev in self._circuit.devices:
                record = self._record(dev.name)
                if record is not None:
                    self._ops[dev.name] = record
        return self._ops
