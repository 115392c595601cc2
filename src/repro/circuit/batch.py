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
* records every triplet it assembles by running the scalar device code
  on the prototype (:meth:`SampleBatchPlan._capture`): the linear
  devices' stamps as they are, and each transistor's Newton companion
  and AC stamps in both drain/source orientations at power-of-two probe
  quantities, so that each recorded value names the quantity and sign
  its per-sample slot takes.  A value that names none raises
  :class:`BatchUnsupported`.  One :class:`_StampLayout` type holds the
  four passes: DC base, DC tail, AC ``G`` and AC ``B``;
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

Parity contract: every triplet is added in the order the scalar stamps
add it, with the value they add (the same accumulation order and
association, the same library calls), and the Newton rule is the serial
one itself, so batched results are **bitwise identical** to the serial
per-sample loop — not merely close.  The test suite asserts exact
equality, also under an edited scalar stamp.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SingularMatrixError
from .ac import AcSystem
from .dc import DCResult, GMIN_FINAL, homotopy_chain
from .devices import (OP_KEYS, Capacitor, Inductor, Isource, Mosfet,
                      Resistor, Vcvs, Vccs, Vsource)
from .linsolve import (AC_GMIN, DenseAcEngine, SparseAcEngine,
                       SparsePattern, TripletStamper, resolve_backend)
from .mos import (REGION_NAMES, evaluate_nmos_stacked,
                  intrinsic_capacitances, intrinsic_capacitances_batch)
from .netlist import Circuit

#: Resistance factor of the probe build; a power of two, so a builder
#: computing ``base * factor`` yields exactly ``2 * (base * 1.0)`` and the
#: linearity check is an exact float comparison.
PROBE_RESISTANCE_FACTOR = 2.0

#: Quantities the transistor stamps are recorded at, in the row order of
#: the quantity stacks their slots are filled from: distinct powers of
#: two, so each recorded value is exactly plus or minus one of them and
#: names its quantity and sign (``gsum = gm + gds + gmb`` is 7).
CONDUCTANCE_PROBES = (1.0, 2.0, 4.0, 7.0)  # gm, gds, gmb, gsum
CURRENT_PROBES = (1.0,)  # ieq
CAPACITANCE_PROBES = (1.0, 2.0, 4.0, 8.0)  # cgs, cgd, cdb, csb


def _probe_op(swapped: bool) -> dict:
    """The operating-point record a transistor's AC stamp is probed at."""
    gm, gds, gmb, _ = CONDUCTANCE_PROBES
    cgs, cgd, cdb, csb = CAPACITANCE_PROBES
    return {"swapped": swapped, "gm": gm, "gds": gds, "gmb": gmb,
            "cgs": cgs, "cgd": cgd, "cdb": cdb, "csb": csb}


class _Recorder(TripletStamper):
    """Triplet stamper that also records every rhs add as ``(row,
    value)``, in call order."""

    def __init__(self, size: int, dtype=float):
        super().__init__(size, dtype)
        self.rhs_rows: List[int] = []
        self.rhs_vals: List[complex] = []

    def add_rhs(self, row: int, value) -> None:
        if row >= 0:
            self.rhs_rows.append(row)
            self.rhs_vals.append(value)
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


def _decode(vals: np.ndarray, table: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray]:
    """``(index, sign)`` with ``vals[i] == sign[i] * table[..., index[i]]``
    exactly, ``table`` one row of candidates or one per value; a value
    matching no candidate raises :class:`BatchUnsupported`."""
    index = np.zeros(vals.size, dtype=np.intp)
    sign = np.zeros(vals.size)
    for j in range(table.shape[-1]):
        for s in (1.0, -1.0):
            hit = vals == s * table[..., j]
            index[hit] = j
            sign[hit] = s
    if not sign.all():
        raise BatchUnsupported(
            f"a stamp adds {vals[sign == 0][0]}, which names no "
            f"per-sample quantity")
    return index, sign


class _StampLayout:
    """The adds of one assembly pass, in the order the scalar stamps make
    them (recorded by :meth:`SampleBatchPlan._capture`).

    Entry ``i`` adds ``const[i]`` to matrix entry ``(rows[i], cols[i])``
    — to ``rhs[rows[i]]`` in an rhs layout, whose ``cols`` is None —
    except in the per-sample slots: where ``res[i] >= 0`` it adds
    ``sign[i]`` times that tracked resistor's conductance, and where
    ``mos[i] >= 0`` ``sign[i]`` times quantity ``qty[i]`` of that
    transistor, from the quantity stack the pass is filled from.  A
    transistor's entries are recorded in both drain/source orientations
    (``swapped``), and :meth:`select` keeps those of one swap signature.
    ``rhs`` is the layout of the pass's rhs adds.
    """

    __slots__ = ("rows", "cols", "const", "sign", "res", "mos", "qty",
                 "swapped", "rhs", "_res_slots", "_mos_slots")

    def __init__(self, rows, cols, const, sign, res, mos, qty, swapped,
                 rhs: Optional["_StampLayout"] = None):
        self.rows, self.cols, self.const = rows, cols, const
        self.sign, self.res, self.mos, self.qty = sign, res, mos, qty
        self.swapped, self.rhs = swapped, rhs
        slots = np.flatnonzero(res >= 0)
        self._res_slots = (slots, res[slots], sign[slots])
        slots = np.flatnonzero(mos >= 0)
        self._mos_slots = (slots, qty[slots], mos[slots], sign[slots])

    @classmethod
    def recorded(cls, rows: Sequence[int], cols: Optional[Sequence[int]],
                 vals: Sequence[complex], dtype, owners: Sequence[np.ndarray],
                 probes: Sequence[float],
                 conductance: Optional[np.ndarray] = None,
                 rhs: Optional["_StampLayout"] = None) -> "_StampLayout":
        """Decode recorded adds.  ``owners`` holds per add the tracked
        resistor and the transistor that made it (-1: neither) and the
        transistor's orientation.  A transistor's value must be plus or
        minus one of ``probes``, a resistor's plus or minus its
        ``conductance`` (None: the pass has no resistor slots)."""
        res, mos, swapped = owners
        vals = np.asarray(vals, dtype=dtype)
        sign = np.ones(vals.size)
        qty = np.zeros(vals.size, dtype=np.intp)
        on_mos, on_res = mos >= 0, res >= 0
        qty[on_mos], sign[on_mos] = _decode(vals[on_mos],
                                            np.asarray(probes, dtype=float))
        _, sign[on_res] = _decode(vals[on_res], np.zeros(0) if conductance
                                  is None else conductance[res[on_res], None])
        return cls(np.asarray(rows, dtype=np.intp),
                   None if cols is None else np.asarray(cols, dtype=np.intp),
                   np.where(on_mos | on_res, 0.0, vals), sign, res, mos, qty,
                   swapped, rhs)

    def select(self, swaps: np.ndarray) -> "_StampLayout":
        """The layout of swap signature ``swaps``: every other device's
        entries, and each transistor's entries of its orientation."""
        keep = (self.mos < 0) | (self.swapped == swaps[self.mos])
        return _StampLayout(
            self.rows[keep], None if self.cols is None else self.cols[keep],
            self.const[keep], self.sign[keep], self.res[keep],
            self.mos[keep], self.qty[keep], self.swapped[keep],
            None if self.rhs is None else self.rhs.select(swaps))

    def values(self, res_g: Optional[np.ndarray] = None,
               q: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-sample values, shape ``(..., entries)``: ``res_g`` holds
        the samples' resistor conductances ``(..., n_res)``, ``q`` their
        quantity stack ``(..., n_quantities, n_mos)``."""
        lead = res_g.shape[:-1] if q is None else q.shape[:-2]
        vals = np.empty(lead + self.const.shape, dtype=self.const.dtype)
        vals[...] = self.const
        slots, res, sign = self._res_slots
        if slots.size:
            vals[..., slots] = sign * res_g[..., res]
        slots, qty, mos, sign = self._mos_slots
        if slots.size:
            vals[..., slots] = q[..., qty, mos] * sign
        return vals


class _MosPlan:
    """Static per-transistor data: reflected model card, effective
    geometry and tracking flags."""

    __slots__ = ("name", "index", "nodes", "pol", "model_t", "w_eff", "l",
                 "tracked_vto", "tracked_beta", "cj")

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
    and records its stamps), then per chunk of samples call
    :meth:`set_samples` followed by :meth:`solve`; each converged
    sample's :meth:`operating_point` reads its device records and
    small-signal systems from the chunk's finalized arrays.
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
        self.n_mos = len(self.mosfets)
        self._build_mos_stack()
        self.resistors: List[Tuple[Resistor, bool, Tuple[int, int]]] = [
            (dev, tracked, node_of[dev.name])
            for dev, tracked in res_pairs]
        self._op_kinds = {mp.name: ("mos", mp.index) for mp in self.mosfets}
        self._op_kinds.update({dev.name: ("res", j) for j, (dev, _, _)
                               in enumerate(self.resistors)})

        self._capture()
        self._dc_signatures: Dict[bytes, tuple] = {}
        self._ac_signatures: Dict[bytes, tuple] = {}
        self.n_samples = 0

    # -- capture ---------------------------------------------------------------
    def _capture(self) -> None:
        """Record every triplet the plan assembles by running the scalar
        stamps on the prototype, device by device in circuit order, as
        the serial backends call them.

        Each linear device stamps its DC stamp into the DC base and its
        AC parts into ``G``/``B``; a tracked resistor's values become
        slots of its per-sample conductance.  Each transistor stamps, in
        both drain/source orientations and at the probe quantities, its
        Newton companion (``Mosfet.stamp_companion``) into the DC tail
        and its AC parts into ``G``/``B``; each value it records becomes
        the slot of the quantity it names.  The DC base ends with the
        gmin diagonal and ``G`` with the ``AC_GMIN`` diagonal, where the
        serial backends stamp them.  The source adds of the DC base rhs
        are marked: they carry the homotopy scale."""
        layout = self.layout
        recorders = (_Recorder(layout.size), _Recorder(layout.size),
                     _Recorder(layout.size, complex),
                     _Recorder(layout.size, complex))
        base, tail, ac_g, ac_b = recorders
        calls: List[Tuple[int, int, bool, bool]] = []
        ends: List[List[int]] = []

        def done(res: int, mos: int, swapped: bool, source: bool) -> None:
            calls.append((res, mos, swapped, source))
            ends.append([n for rec in recorders
                         for n in (len(rec.rows), len(rec.rhs_rows))])

        for dev, nodes, branches in zip(self.circuit.devices,
                                        layout.device_nodes,
                                        layout.device_branches):
            kind, j = self._op_kinds.get(dev.name, (None, -1))
            if kind == "mos":
                for swapped in (False, True):
                    dev.stamp_companion(
                        tail, *Mosfet.effective_nodes(nodes, swapped),
                        *CONDUCTANCE_PROBES, *CURRENT_PROBES)
                    dev.stamp_ac_parts(ac_g, ac_b, nodes, branches,
                                       _probe_op(swapped))
                    done(-1, j, swapped, False)
                continue
            dev.stamp_dc(base, np.zeros(0), nodes, branches)
            dev.stamp_ac_parts(ac_g, ac_b, nodes, branches, None)
            tracked = kind == "res" and self.resistors[j][1]
            done(j if tracked else -1, -1, False,
                 isinstance(dev, (Vsource, Isource)))
        self._dc_n_linear = len(base.rows)
        base.add_diagonal(layout.n_nodes, GMIN_FINAL)
        ac_g.add_diagonal(layout.n_nodes, AC_GMIN)
        done(-1, -1, False, False)

        counts = np.diff(np.asarray(ends), axis=0, prepend=0)
        res, mos, swapped, source = (np.asarray(c) for c in zip(*calls))
        conductance = np.array([1.0 / dev.resistance
                                for dev, _, _ in self.resistors])

        def record(r: int, probes, rhs_probes, dtype=float) -> _StampLayout:
            rec = recorders[r]
            n, n_rhs = counts[:, 2 * r], counts[:, 2 * r + 1]
            rhs = _StampLayout.recorded(
                rec.rhs_rows, None, rec.rhs_vals, dtype,
                [np.repeat(c, n_rhs) for c in (res, mos, swapped)],
                rhs_probes)
            return _StampLayout.recorded(
                rec.rows, rec.cols, rec.vals, dtype,
                [np.repeat(c, n) for c in (res, mos, swapped)], probes,
                conductance, rhs)

        self._dc_base = record(0, (), ())
        self._dc_rhs_scaled = np.repeat(source, counts[:, 1])
        self._dc_tail = record(1, CONDUCTANCE_PROBES, CURRENT_PROBES)
        self._ac_g = record(2, CONDUCTANCE_PROBES, (), complex)
        self._ac_b = record(3, CAPACITANCE_PROBES, (), complex)
        self._ac_rhs_static = ac_g.rhs + ac_b.rhs
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
        self._dc_base_vals = self._dc_base.values(self._res_g)
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
        bit-for-bit, and the ``(k, quantities, n_mos)`` stacks the DC
        tail and ``G`` slots are filled from (rows in the order of
        :data:`CONDUCTANCE_PROBES` and :data:`CURRENT_PROBES`).

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
        gsum = Mosfet.conductance_sum(gm, gds, gmb)
        ieq = Mosfet.equivalent_current(pol, ev["ids"], gm, gds, gmb, gsum,
                                        vd_eff, vg0, vs_eff, vb0)
        return {
            "gm": gm, "gds": gds, "gmb": gmb,
            "conductances": np.stack([gm, gds, gmb, gsum], axis=1),
            "currents": ieq[:, None, :],
            "ids": ev["ids"], "vgs": vgs, "vds": vds_eff, "vbs": vbs,
            "vth": ev["vth"], "vdsat": ev["vdsat"], "vov": ev["vov"],
            "region": ev["region"].astype(np.intp, copy=False),
            "swapped": swap,
        }

    # -- swap signatures ------------------------------------------------------
    def _pattern(self, first: _StampLayout,
                 second: _StampLayout) -> Optional[SparsePattern]:
        """The sparse pattern of one system assembled from two layouts
        (None on the dense backend)."""
        if not self.sparse:
            return None
        return SparsePattern(
            np.concatenate([first.rows, second.rows]).astype(np.int32),
            np.concatenate([first.cols, second.cols]).astype(np.int32),
            self.layout.size)

    def _dc_signature(self, key: bytes, swaps: np.ndarray) -> tuple:
        """``(tail, pattern)`` of swap signature ``swaps`` (``key`` its
        packed bits): its DC tail and the pattern of base and tail."""
        signature = self._dc_signatures.get(key)
        if signature is None:
            tail = self._dc_tail.select(swaps)
            signature = (tail, self._pattern(self._dc_base, tail))
            self._dc_signatures[key] = signature
        return signature

    def _ac_signature(self, key: bytes, swaps: np.ndarray) -> tuple:
        """``(g, b, pattern)`` of swap signature ``swaps``: its AC ``G``
        and ``B`` layouts and the union pattern of both."""
        signature = self._ac_signatures.get(key)
        if signature is None:
            g, b = self._ac_g.select(swaps), self._ac_b.select(swaps)
            signature = (g, b, self._pattern(g, b))
            self._ac_signatures[key] = signature
        return signature

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
        size, base = self.layout.size, self._dc_base
        # The linear bases as the serial backends stamp a fresh system
        # per stage: the gmin triplets sit behind the linear stamps, so
        # only their value, not the accumulation order, changes.
        vals = self._dc_base_vals[rows]
        vals[:, self._dc_n_linear:] = gmin
        mats = None
        if not self.sparse:
            mats = np.zeros((rows.size, size, size))
            np.add.at(mats, (np.arange(rows.size)[:, None], base.rows,
                             base.cols), vals)
        # The linear rhs, re-accumulated add-by-add in the recorded stamp
        # order with each source add scaled on its own: bitwise the
        # serial ``±(dc * scale)`` stamps (and at scale 1.0 the unscaled
        # ones).
        rhs = np.zeros(size)
        const = base.rhs.const
        np.add.at(rhs, base.rhs.rows, np.where(
            self._dc_rhs_scaled, const * (1.0 if scale is None else scale),
            const))

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
                    self._dc_signature(key, swaps[sel[0]]), vals[grp],
                    None if mats is None else mats[grp], rhs, sel,
                    quantities, x_new, solved)
            return x_new, solved

        return solve

    def _assemble_and_solve(self, signature: tuple, base_vals: np.ndarray,
                            base_mats: Optional[np.ndarray],
                            base_rhs: np.ndarray, local_rows: np.ndarray,
                            quantities: dict, x_new: np.ndarray,
                            solved: np.ndarray) -> None:
        """Assemble and solve the group's linear systems into
        ``x_new[local_rows]``.  ``signature`` is the group's
        :meth:`_dc_signature`, ``base_vals``/``base_mats`` are the
        group's gathered copies of the stage's linear bases
        (``base_mats`` is mutated in place) and ``base_rhs`` the stage's
        source rhs.  Samples whose solve fails are flagged in
        ``solved`` for the fallback."""
        tail, pattern = signature
        k = local_rows.size
        size = self.layout.size
        tail_vals = tail.values(q=quantities["conductances"][local_rows])
        rhs_vals = tail.rhs.values(q=quantities["currents"][local_rows])
        samp = np.arange(k)[:, None]
        if self.sparse:
            # Serial sparse rhs: nonlinear adds accumulate from zero,
            # then base + tail in one elementwise add.
            rhs_nl = np.zeros((k, size))
            np.add.at(rhs_nl, (samp, tail.rhs.rows), rhs_vals)
            vals = np.concatenate([base_vals, tail_vals], axis=1)
            rhs = base_rhs + rhs_nl
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
            np.add.at(mats, (samp, tail.rows, tail.cols), tail_vals)
            rhs = np.tile(base_rhs, (k, 1))
            np.add.at(rhs, (samp, tail.rhs.rows), rhs_vals)
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
        device's ``operating_point`` record), with the stack the ``B``
        slots are filled from (rows in :data:`CAPACITANCE_PROBES`
        order)."""
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
            cj = np.broadcast_to(self._mos_cj, cgs.shape)
            quantities["capacitances"] = np.stack([cgs, cgd, cj, cj], axis=1)
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


class _RowDCResult(DCResult):
    """:class:`DCResult` of one carried chunk sample whose device records
    and small-signal systems (:meth:`ac_systems`) are read from the
    plan's finalized arrays — bitwise the records the scalar
    ``operating_points`` computes.  The arrays are captured at
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
        self._res_g = plan._res_g[k]

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
        cj = plan.mosfets[j].cj
        # OP_KEYS: ten floats, region, swapped, then the capacitances.
        return Mosfet.op_record(
            *(float(fin[key][i, j]) for key in OP_KEYS[:10]),
            REGION_NAMES[int(fin["region"][i, j])],
            bool(fin["swapped"][i, j]),
            float(fin["cgs"][i, j]), float(fin["cgd"][i, j]), cj, cj)

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

    def ac_systems(self) -> Dict[tuple, AcSystem]:
        """The row's small-signal systems, keyed by drive as
        :class:`~repro.evaluation.measure.OpenLoopOpampBench` keys them:
        differential ``(0.5, -0.5)`` and common-mode ``(1.0, 1.0)``,
        sharing one ``(G, B)`` (and, on the sparse backend, the
        factorizations).

        The row's ``(G, B)`` values come from the captured arrays and go
        through its AC swap signature's ``G`` and ``B`` layouts, recorded
        from the scalar stamps in the engines' own stamp order, so the
        systems are bitwise the ones the scalar
        :class:`~repro.circuit.ac.AcSystem` assembles."""
        plan, fin, i = self._plan, self._fin, self._i
        swaps = fin["swapped"][i]
        g, b, pattern = plan._ac_signature(np.packbits(swaps).tobytes(),
                                           swaps)
        g_vals = g.values(self._res_g, fin["conductances"][i])
        b_vals = b.values(self._res_g, fin["capacitances"][i])
        rhs_dm = plan._ac_rhs_static.copy()
        rhs_dm[plan._drive_vip] += 0.5
        rhs_dm[plan._drive_vin] += -0.5
        rhs_cm = plan._ac_rhs_static.copy()
        rhs_cm[plan._drive_vip] += 1.0
        rhs_cm[plan._drive_vin] += 1.0
        if plan.sparse:
            n_g = g_vals.size
            vals = np.zeros(n_g + b_vals.size, dtype=complex)
            vals[:n_g] = g_vals
            g_full = pattern.fill(vals)
            vals[:] = 0.0
            vals[n_g:] = b_vals
            engine = SparseAcEngine.assembled(
                plan.circuit, plan.layout, pattern, g_full,
                pattern.fill(vals), rhs_dm)
        else:
            size = plan.layout.size
            g_mat = np.zeros((size, size), dtype=complex)
            np.add.at(g_mat, (g.rows, g.cols), g_vals)
            b_mat = np.zeros((size, size), dtype=complex)
            np.add.at(b_mat, (b.rows, b.cols), b_vals)
            engine = DenseAcEngine.assembled(plan.circuit, plan.layout,
                                             g_mat, b_mat, rhs_dm)
        return {(0.5, -0.5): AcSystem.assembled(plan.circuit, plan.backend,
                                                engine),
                (1.0, 1.0): AcSystem.assembled(plan.circuit, plan.backend,
                                               engine.with_rhs(rhs_cm))}
