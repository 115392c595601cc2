"""Statistical parameter space with design-dependent covariance (Sec. 4).

The paper's central modeling point: with local variations the covariance
``C(d)`` of the statistical parameters depends on the design point, because
``sigma^2(dVth) ~ 1/(W L)`` (Pelgrom).  Equations (11)-(12) remove this
dependence from the probability measure by substituting

    s = G(d) * s_hat + s0,        G(d) G(d)^T = C(d),

so that ``s_hat ~ N(0, I)`` regardless of ``d`` and the design dependence
moves into the performance function ``f_hat(d, s_hat) = f(d, s(s_hat))``.

:class:`StatisticalSpace` owns that transform.  The algorithmic layers
(worst-case search, linearization, yield estimation) work exclusively in
normalized ``s_hat`` coordinates; circuit templates receive the *physical*
perturbations via :meth:`StatisticalSpace.to_physical`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ReproError
from ..pdk.process import Process


@dataclass(frozen=True)
class DeviceGeometry:
    """Geometry of one transistor, possibly bound to design parameters.

    ``w`` and ``l`` are either design-parameter *names* (resolved against
    the design dict at evaluation time) or fixed values in meters.  This is
    how ``C(d)`` acquires its design dependence.

    ``x``/``y`` optionally place the device on the die (meters); they feed
    the Pelgrom *distance* term when the space is built with
    ``with_gradient=True`` (the paper neglects this term per its ref. [1];
    it is provided as an extension).
    """

    w: Union[str, float]
    l: Union[str, float]
    m: int = 1
    x: float = 0.0
    y: float = 0.0

    def resolve(self, d: Mapping[str, float]) -> Tuple[float, float, int]:
        """Return concrete ``(w, l, m)`` in meters for design point ``d``."""
        def resolve_one(value: Union[str, float]) -> float:
            if isinstance(value, str):
                if value not in d:
                    raise ReproError(
                        f"geometry refers to unknown design parameter "
                        f"{value!r}")
                return float(d[value])
            return float(value)

        w = resolve_one(self.w)
        l = resolve_one(self.l)
        if w <= 0 or l <= 0:
            raise ReproError(f"non-positive geometry w={w}, l={l}")
        return w, l, self.m


@dataclass(frozen=True)
class LocalVariation:
    """One local (mismatch) statistical parameter.

    Perturbs a single device: ``kind = "vth"`` adds to its threshold
    magnitude, ``kind = "beta"`` scales its gain factor by ``1 + value``.
    The standard deviation follows the process Pelgrom coefficients and the
    device geometry, hence depends on the design point.
    """

    name: str
    device: str
    kind: str  # "vth" | "beta"
    polarity: int  # +1 NMOS, -1 PMOS
    geometry: DeviceGeometry

    def __post_init__(self):
        if self.kind not in ("vth", "beta"):
            raise ReproError(f"local variation {self.name!r}: kind must be "
                             f"'vth' or 'beta', got {self.kind!r}")

    def sigma(self, process: Process, d: Mapping[str, float]) -> float:
        """Physical standard deviation at design point ``d``."""
        w, l, m = self.geometry.resolve(d)
        if self.kind == "vth":
            return process.pelgrom.sigma_vth(self.polarity, w, l, m)
        return process.pelgrom.sigma_beta(self.polarity, w, l, m)


@dataclass
class PhysicalVariations:
    """Physical perturbations for one statistical sample.

    ``global_values`` maps global-parameter name -> physical value;
    ``device_delta_vto`` / ``device_beta_factor`` map device name -> the
    values a circuit template feeds into :class:`repro.circuit.Mosfet`
    (already combining global and local contributions);
    ``resistance_factor`` multiplies every resistor value (global sheet
    resistance variation).
    """

    global_values: Dict[str, float]
    device_delta_vto: Dict[str, float]
    device_beta_factor: Dict[str, float]
    resistance_factor: float = 1.0

    def delta_vto(self, device: str) -> float:
        return self.device_delta_vto.get(device, 0.0)

    def beta_factor(self, device: str) -> float:
        return self.device_beta_factor.get(device, 1.0)


class StatisticalSpace:
    """Joint space of global and local statistical parameters.

    Parameters are ordered globals-first, locals-second.  All public
    methods speak *normalized* coordinates ``s_hat ~ N(0, I)``; the
    design-dependent scaling ``G(d)`` is applied internally.
    """

    def __init__(self, process: Process,
                 local_variations: Sequence[LocalVariation] = (),
                 with_global: bool = True,
                 device_polarities: Optional[Mapping[str, int]] = None,
                 with_gradient: bool = False):
        self.process = process
        self.with_global = with_global
        self.with_gradient = with_gradient
        self.local_variations = tuple(local_variations)
        if with_gradient and not self.local_variations:
            raise ReproError(
                "with_gradient=True requires local variations (the "
                "gradient acts through their device positions)")
        names = []
        if with_global:
            names.extend(process.global_names)
        seen = set(names)
        for lv in self.local_variations:
            if lv.name in seen:
                raise ReproError(f"duplicate statistical parameter "
                                 f"{lv.name!r}")
            seen.add(lv.name)
            names.append(lv.name)
        if with_gradient:
            names.extend(("grad_vth_x", "grad_vth_y"))
        self.names: Tuple[str, ...] = tuple(names)
        self.n_global = len(process.global_names) if with_global else 0
        self.n_local = len(self.local_variations)
        self.n_gradient = 2 if with_gradient else 0
        #: device name -> polarity, for applying global vth/beta targets;
        #: defaults to the polarity recorded in the local variations.
        self.device_polarities: Dict[str, int] = dict(device_polarities or {})
        for lv in self.local_variations:
            self.device_polarities.setdefault(lv.device, lv.polarity)
        if with_global:
            cov = process.global_covariance()
            self._global_transform = np.linalg.cholesky(cov)
        else:
            self._global_transform = np.zeros((0, 0))
        #: ``(d items, G(d))`` of the last :meth:`transform_matrix` call
        self._last_transform: Optional[tuple] = None

    @property
    def dim(self) -> int:
        return self.n_global + self.n_local + self.n_gradient

    def index(self, name: str) -> int:
        """Index of a statistical parameter by name."""
        try:
            return self.names.index(name)
        except ValueError:
            raise ReproError(f"unknown statistical parameter {name!r}") \
                from None

    def local_sigmas(self, d: Mapping[str, float]) -> np.ndarray:
        """Per-local-parameter physical sigmas at design point ``d``."""
        return np.array([lv.sigma(self.process, d)
                         for lv in self.local_variations])

    def covariance(self, d: Mapping[str, float]) -> np.ndarray:
        """Physical covariance matrix ``C(d)`` (globals block + local diag)."""
        n = self.dim
        cov = np.zeros((n, n))
        ng = self.n_global
        if ng:
            cov[:ng, :ng] = self.process.global_covariance()
        if self.n_local:
            sig = self.local_sigmas(d)
            nl = self.n_local
            cov[ng:ng + nl, ng:ng + nl] = np.diag(sig**2)
        if self.n_gradient:
            svt = self.process.pelgrom.svt
            cov[-2:, -2:] = np.eye(2) * svt**2
        return cov

    def transform_matrix(self, d: Mapping[str, float]) -> np.ndarray:
        """The factor ``G(d)`` with ``G G^T = C(d)`` (Eq. 11).

        Globals use the Cholesky factor of their (constant) covariance;
        locals are independent, so their block is diagonal with the
        Pelgrom sigmas of design point ``d``.

        The last ``G(d)`` is kept, keyed by ``d``'s items, and returned
        read-only: the rows of a Monte-Carlo run and the evaluations of
        a worst-case search share one ``d``.
        """
        key = tuple(d.items())
        last = self._last_transform
        if last is not None and last[0] == key:
            return last[1]
        n = self.dim
        g = np.zeros((n, n))
        ng = self.n_global
        if ng:
            g[:ng, :ng] = self._global_transform
        if self.n_local:
            sig = self.local_sigmas(d)
            nl = self.n_local
            g[ng:ng + nl, ng:ng + nl] = np.diag(sig)
        if self.n_gradient:
            svt = self.process.pelgrom.svt
            g[-2:, -2:] = np.eye(2) * svt
        g.flags.writeable = False
        self._last_transform = (key, g)
        return g

    def to_physical(self, d: Mapping[str, float],
                    s_hat: np.ndarray) -> PhysicalVariations:
        """Apply ``s = G(d) s_hat`` and split into device perturbations."""
        s_hat = np.asarray(s_hat, dtype=float)
        if s_hat.shape != (self.dim,):
            raise ReproError(
                f"statistical vector has shape {s_hat.shape}, expected "
                f"({self.dim},)")
        s_phys = self.transform_matrix(d) @ s_hat

        global_values: Dict[str, float] = {}
        vth_shift = {1: 0.0, -1: 0.0}
        beta_shift = {1: 0.0, -1: 0.0}
        resistance_factor = 1.0
        if self.with_global:
            for gv, value in zip(self.process.global_variations,
                                 s_phys[:self.n_global]):
                global_values[gv.name] = float(value)
                if gv.target == "vth_nmos":
                    vth_shift[1] += value
                elif gv.target == "vth_pmos":
                    vth_shift[-1] += value
                elif gv.target == "beta_nmos":
                    beta_shift[1] += value
                elif gv.target == "beta_pmos":
                    beta_shift[-1] += value
                elif gv.target == "res":
                    resistance_factor *= 1.0 + value
        # Multiplicative factors must stay physical even when an optimizer
        # probes the extreme tails of the distribution (many sigmas out).
        resistance_factor = max(resistance_factor, 0.05)

        delta_vto: Dict[str, float] = {}
        beta_factor: Dict[str, float] = {}
        for device, polarity in self.device_polarities.items():
            delta_vto[device] = float(vth_shift[polarity])
            beta_factor[device] = float(1.0 + beta_shift[polarity])
        ng = self.n_global
        for lv, value in zip(self.local_variations,
                             s_phys[ng:ng + self.n_local]):
            if lv.kind == "vth":
                delta_vto[lv.device] = delta_vto.get(lv.device, 0.0) \
                    + float(value)
            else:
                beta_factor[lv.device] = beta_factor.get(lv.device, 1.0) \
                    * float(1.0 + value)
        if self.n_gradient:
            # Die-level threshold gradient (the Pelgrom distance term):
            # every positioned device picks up gx*x + gy*y on top of its
            # area-law local variation.
            gx, gy = s_phys[-2], s_phys[-1]
            for lv in self.local_variations:
                if lv.kind != "vth":
                    continue
                shift = float(gx * lv.geometry.x + gy * lv.geometry.y)
                delta_vto[lv.device] = delta_vto.get(lv.device, 0.0) + shift
        beta_factor = {device: max(value, 0.05)
                       for device, value in beta_factor.items()}
        return PhysicalVariations(global_values, delta_vto, beta_factor,
                                  resistance_factor=resistance_factor)

    def nominal(self) -> np.ndarray:
        """The nominal statistical point ``s_hat = 0``."""
        return np.zeros(self.dim)
