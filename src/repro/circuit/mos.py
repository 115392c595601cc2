"""Smooth SPICE level-1 MOS transistor model with analytic derivatives.

The yield-optimization algorithm treats the simulator as a black box, but it
relies on a few qualitative properties of real MOS circuits:

* performances are weakly nonlinear inside the feasibility region,
* the drain current depends on threshold voltage and gain factor, so both
  global shifts and local (mismatch) perturbations of ``VTO``/``KP`` have
  first-order effect,
* device variance scales with ``1/(W*L)`` (Pelgrom), which couples the
  statistical model to the design parameters.

A level-1 (Shichman-Hodges) model with channel-length modulation, body
effect and temperature dependence reproduces all of these.  The classic
hard cutoff is replaced by a *softplus* smoothing of the overdrive voltage
so the drain current and its derivatives are continuous everywhere; this is
essential for the robustness of the Newton DC solver and of the
finite-difference gradients used by the worst-case point search.

All equations are written for an NMOS device; PMOS devices are evaluated by
polarity reflection in :class:`~repro.circuit.devices.Mosfet`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ..units import KELVIN_OFFSET

#: Reference temperature for model parameters, in Celsius.
NOMINAL_TEMP_C = 27.0

#: Width of the softplus smoothing of the overdrive voltage, in volts.  Small
#: enough that strong-inversion currents are unaffected (<0.1% above 100 mV
#: overdrive), large enough to give Newton a continuous path through cutoff.
DEFAULT_SMOOTHING_V = 4e-3


@dataclass(frozen=True)
class MosModel:
    """Technology card of a level-1 MOS transistor.

    Parameters follow SPICE naming.  ``polarity`` is +1 for NMOS and -1 for
    PMOS.  ``lambda_`` carries the trailing underscore because ``lambda`` is
    a Python keyword; it is the channel-length-modulation coefficient for a
    1 um long device and is scaled as ``lambda_ / L[um]`` so long-channel
    devices show higher output resistance, as in real processes.
    """

    name: str
    polarity: int  # +1 NMOS, -1 PMOS
    vto: float  # zero-bias threshold voltage [V] (negative for PMOS)
    kp: float  # transconductance parameter [A/V^2]
    lambda_: float  # channel-length modulation for L = 1 um [1/V]
    gamma: float = 0.5  # body-effect coefficient [sqrt(V)]
    phi: float = 0.7  # surface potential [V]
    tox: float = 7.6e-9  # gate-oxide thickness [m]
    cgso: float = 1.2e-10  # G-S overlap capacitance per width [F/m]
    cgdo: float = 1.2e-10  # G-D overlap capacitance per width [F/m]
    cj: float = 9e-4  # junction capacitance per area [F/m^2]
    ldif: float = 0.8e-6  # source/drain diffusion length [m]
    tcv: float = 1.5e-3  # threshold temperature coefficient [V/K]
    bex: float = -1.5  # mobility temperature exponent
    smoothing: float = DEFAULT_SMOOTHING_V

    #: Permittivity of SiO2 [F/m].
    EPS_OX: float = field(default=3.45e-11, repr=False)

    @property
    def cox(self) -> float:
        """Gate-oxide capacitance per area [F/m^2]."""
        return self.EPS_OX / self.tox

    def at_temperature(self, temp_c: float) -> "MosModel":
        """Return a copy with ``vto`` and ``kp`` moved to ``temp_c``.

        The threshold magnitude drops by ``tcv`` per Kelvin and mobility
        follows a power law with exponent ``bex``, the standard first-order
        temperature behaviour of MOS devices.
        """
        if temp_c == NOMINAL_TEMP_C:
            return self
        dt = temp_c - NOMINAL_TEMP_C
        t_ratio = (temp_c + KELVIN_OFFSET) / (NOMINAL_TEMP_C + KELVIN_OFFSET)
        vto_t = self.vto - self.polarity * self.tcv * dt
        kp_t = self.kp * t_ratio**self.bex
        return replace(self, vto=vto_t, kp=kp_t)

    def perturbed(self, delta_vto: float = 0.0, beta_factor: float = 1.0) -> "MosModel":
        """Return a copy with the statistical perturbations applied.

        ``delta_vto`` shifts the threshold *magnitude* (positive values make
        either polarity harder to turn on) and ``beta_factor`` scales the
        gain factor ``kp`` multiplicatively.  This is the hook through which
        both global process variation and local mismatch enter the
        simulator.
        """
        if delta_vto == 0.0 and beta_factor == 1.0:
            return self
        return replace(
            self,
            vto=self.vto + self.polarity * delta_vto,
            kp=self.kp * beta_factor,
        )


@dataclass
class MosEval:
    """Result of one large-signal model evaluation (NMOS convention).

    ``ids`` is the drain-to-source current; the conductances are the partial
    derivatives used to stamp the Newton Jacobian.  ``region`` is a
    human-readable operating-region label and ``vdsat`` the saturation
    voltage, both consumed by the feasibility constraints (Sec. 5.1).
    """

    ids: float
    gm: float
    gds: float
    gmb: float
    vth: float
    vdsat: float
    vov: float
    region: str


def _softplus(x: float, width: float) -> tuple[float, float]:
    """Numerically safe softplus ``width * log(1 + exp(x / width))``.

    Returns the value and its derivative (the logistic function).  For
    ``|x| >> width`` it degenerates to ``max(x, 0)`` without overflow.

    Uses ``np.exp`` / ``np.log1p`` (not :mod:`math`) so the scalar path
    is bitwise identical to the vectorized softplus of
    :func:`evaluate_nmos_stacked` — the two libm implementations differ
    in the last ulp for some arguments, and the sample-batched engine's
    parity guarantee rests on both paths computing the same bits.
    """
    t = x / width
    if t > 35.0:
        return x, 1.0
    if t < -35.0:
        e = float(np.exp(t))
        return width * e, e
    e = float(np.exp(t))
    return width * float(np.log1p(e)), e / (1.0 + e)


def evaluate_nmos(
    model: MosModel,
    w: float,
    l: float,
    vgs: float,
    vds: float,
    vbs: float,
) -> MosEval:
    """Evaluate the level-1 equations for an NMOS-convention device.

    ``vds`` must be non-negative; the caller (:class:`Mosfet`) performs the
    source/drain swap for reverse operation and the polarity reflection for
    PMOS.  Returns current and all partial derivatives.
    """
    # --- threshold with body effect -------------------------------------
    # vth = vto + gamma * (sqrt(phi - vbs) - sqrt(phi)); the sqrt argument is
    # clamped smoothly so forward body bias cannot produce a NaN.  The
    # zero-bias threshold is polarity-reflected so a PMOS card with
    # vto = -0.65 V presents +0.65 V to these NMOS-convention equations.
    vto_eff = model.polarity * model.vto
    phi = model.phi
    arg = phi - vbs
    arg_min = 0.05
    if arg < arg_min:
        # Quadratic clamp: value and slope continuous at arg_min.
        sq = math.sqrt(arg_min)
        dsq_darg = 0.5 / sq
        sqrt_term = sq + dsq_darg * (arg - arg_min)
        if sqrt_term < 0.5 * sq:
            sqrt_term = 0.5 * sq
            dsq_darg = 0.0
    else:
        sqrt_term = math.sqrt(arg)
        dsq_darg = 0.5 / sqrt_term
    vth = vto_eff + model.gamma * (sqrt_term - math.sqrt(phi))
    dvth_dvbs = -model.gamma * dsq_darg

    # --- smoothed overdrive ---------------------------------------------
    vov_raw = vgs - vth
    vov, dvov = _softplus(vov_raw, model.smoothing)
    # vov depends on vgs (directly) and vbs (through vth).

    # --- channel-length modulation ---------------------------------------
    lam = model.lambda_ / (l * 1e6)  # reference length 1 um
    beta = model.kp * (w / l)
    clm = 1.0 + lam * vds

    vdsat = vov
    if vds >= vdsat:
        # Saturation: ids = beta/2 * vov^2 * (1 + lam*vds)
        ids = 0.5 * beta * vov * vov * clm
        dids_dvov = beta * vov * clm
        gds = 0.5 * beta * vov * vov * lam
        region = "saturation" if vov_raw > 0 else "cutoff"
    else:
        # Triode: ids = beta * (vov - vds/2) * vds * (1 + lam*vds)
        ids = beta * (vov - 0.5 * vds) * vds * clm
        dids_dvov = beta * vds * clm
        gds = beta * ((vov - vds) * clm + (vov - 0.5 * vds) * vds * lam)
        region = "triode" if vov_raw > 0 else "cutoff"

    gm = dids_dvov * dvov
    gmb = dids_dvov * dvov * (-dvth_dvbs)

    return MosEval(
        ids=ids,
        gm=gm,
        gds=gds,
        gmb=gmb,
        vth=vth,
        vdsat=vdsat,
        vov=vov_raw,
        region=region,
    )


#: integer region codes used by the vectorized evaluation
REGION_SATURATION = 0
REGION_TRIODE = 1
REGION_CUTOFF = 2
REGION_NAMES = ("saturation", "triode", "cutoff")


def evaluate_nmos_batch(
    model: MosModel,
    w: float,
    l: float,
    vgs: np.ndarray,
    vds: np.ndarray,
    vbs: np.ndarray,
    vto: Optional[np.ndarray] = None,
    kp: Optional[np.ndarray] = None,
) -> dict:
    """:func:`evaluate_nmos_stacked` for **one** device over a sample axis.

    ``vgs``/``vds``/``vbs`` are per-sample arrays for one device (fixed
    ``w``, ``l``); ``vto``/``kp`` optionally carry per-sample statistical
    perturbations of the model card (already temperature-adjusted, i.e.
    what ``MosModel.perturbed`` would have produced per sample).
    """
    vgs = np.asarray(vgs, dtype=float)
    return evaluate_nmos_stacked(
        model.phi, model.gamma, model.smoothing, model.lambda_ / (l * 1e6),
        w / l, model.polarity * np.full_like(
            vgs, model.vto if vto is None else vto),
        np.full_like(vgs, model.kp if kp is None else kp), vgs,
        np.asarray(vds, dtype=float), np.asarray(vbs, dtype=float))


def evaluate_nmos_stacked(
    phi: np.ndarray,
    gamma: np.ndarray,
    smoothing: np.ndarray,
    lam: np.ndarray,
    w_over_l: np.ndarray,
    vto_eff: np.ndarray,
    kp: np.ndarray,
    vgs: np.ndarray,
    vds: np.ndarray,
    vbs: np.ndarray,
) -> dict:
    """Vectorized :func:`evaluate_nmos` over a ``(samples, devices)`` plane.

    One call covers every transistor of a sample-batched Newton
    iteration: the per-device model-card scalars arrive as
    ``(devices,)`` rows (``lam`` and ``w_over_l`` pre-divided with the
    exact scalar expressions ``lambda_ / (l * 1e6)`` and ``w / l``;
    ``vto_eff`` already polarity-reflected and combined with the
    per-sample threshold shifts) and broadcast against the
    ``(samples, devices)`` voltage matrices.  Every arithmetic step
    mirrors the scalar function operation-for-operation, so each entry
    is bitwise identical to the scalar call on that device's perturbed
    card — the property the sample-batched Newton engine's parity
    guarantee rests on.

    Returns a dict of arrays: ``ids, gm, gds, gmb, vth, vdsat, vov,
    region`` (integer codes indexing :data:`REGION_NAMES`).
    """
    # --- threshold with body effect -------------------------------------
    arg = phi - vbs
    arg_min = 0.05
    sq = math.sqrt(arg_min)
    clamped = arg < arg_min
    sqrt_term = np.empty_like(arg)
    dsq_darg = np.empty_like(arg)
    c_slope = 0.5 / sq
    lin = sq + c_slope * (arg[clamped] - arg_min)
    floor = lin < 0.5 * sq
    d_c = np.full(lin.shape, c_slope)
    lin[floor] = 0.5 * sq
    d_c[floor] = 0.0
    sqrt_term[clamped] = lin
    dsq_darg[clamped] = d_c
    ok = ~clamped
    root = np.sqrt(arg[ok])
    sqrt_term[ok] = root
    dsq_darg[ok] = 0.5 / root
    vth = vto_eff + gamma * (sqrt_term - np.sqrt(phi))
    dvth_dvbs = -gamma * dsq_darg

    # --- smoothed overdrive ---------------------------------------------
    vov_raw = vgs - vth
    width = np.broadcast_to(smoothing, vov_raw.shape)
    t = vov_raw / width
    vov = np.empty_like(t)
    dvov = np.empty_like(t)
    hi = t > 35.0
    lo = t < -35.0
    mid = ~(hi | lo)
    vov[hi] = vov_raw[hi]
    dvov[hi] = 1.0
    e_lo = np.exp(t[lo])
    vov[lo] = width[lo] * e_lo
    dvov[lo] = e_lo
    e = np.exp(t[mid])
    vov[mid] = width[mid] * np.log1p(e)
    dvov[mid] = e / (1.0 + e)

    # --- channel-length modulation ---------------------------------------
    beta = kp * w_over_l
    clm = 1.0 + lam * vds

    vdsat = vov
    sat = vds >= vdsat
    tri = ~sat
    ids = np.empty_like(vgs)
    dids_dvov = np.empty_like(vgs)
    gds = np.empty_like(vgs)
    lam_full = np.broadcast_to(lam, vgs.shape)
    # Saturation: ids = beta/2 * vov^2 * (1 + lam*vds)
    b_s, v_s, c_s = beta[sat], vov[sat], clm[sat]
    ids[sat] = 0.5 * b_s * v_s * v_s * c_s
    dids_dvov[sat] = b_s * v_s * c_s
    gds[sat] = 0.5 * b_s * v_s * v_s * lam_full[sat]
    # Triode: ids = beta * (vov - vds/2) * vds * (1 + lam*vds)
    b_t, v_t, d_t, c_t = beta[tri], vov[tri], vds[tri], clm[tri]
    ids[tri] = b_t * (v_t - 0.5 * d_t) * d_t * c_t
    dids_dvov[tri] = b_t * d_t * c_t
    gds[tri] = b_t * ((v_t - d_t) * c_t
                      + (v_t - 0.5 * d_t) * d_t * lam_full[tri])

    region = np.where(vov_raw > 0,
                      np.where(sat, REGION_SATURATION, REGION_TRIODE),
                      REGION_CUTOFF)

    gm = dids_dvov * dvov
    gmb = dids_dvov * dvov * (-dvth_dvbs)

    return {
        "ids": ids, "gm": gm, "gds": gds, "gmb": gmb,
        "vth": vth, "vdsat": vdsat, "vov": vov_raw, "region": region,
    }


def _capacitance_table(model: MosModel, w: float, l: float
                       ) -> tuple[tuple[float, float, float, float], ...]:
    """``(cgs, cgd, cdb, csb)`` of each operating region, indexed by the
    region codes of :data:`REGION_NAMES`.

    The Meyer partition is used: in saturation the channel charge is
    assigned 2/3 to the source; in triode it splits evenly; in cutoff only
    overlaps remain.  Junction capacitances are treated as bias-independent
    area capacitances — adequate for the small-signal frequency responses
    this library extracts.
    """
    c_channel = model.cox * w * l
    cgs_overlap = model.cgso * w
    cgd_overlap = model.cgdo * w
    cj_area = model.cj * w * model.ldif
    return (
        ((2.0 / 3.0) * c_channel + cgs_overlap, cgd_overlap, cj_area, cj_area),
        (0.5 * c_channel + cgs_overlap, 0.5 * c_channel + cgd_overlap,
         cj_area, cj_area),
        (cgs_overlap, cgd_overlap, cj_area, cj_area),
    )


def intrinsic_capacitances(
    model: MosModel, w: float, l: float, region: str
) -> tuple[float, float, float, float]:
    """Return ``(cgs, cgd, cdb, csb)`` for the named operating region
    (see :func:`_capacitance_table`)."""
    return _capacitance_table(model, w, l)[REGION_NAMES.index(region)]


def intrinsic_capacitances_batch(
    model: MosModel, w: float, l: float, region: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Vectorized :func:`intrinsic_capacitances` over integer region
    codes, read from the same per-region table."""
    table = np.array(_capacitance_table(model, w, l))
    return table[region, 0], table[region, 1], table[0, 2], table[0, 3]
