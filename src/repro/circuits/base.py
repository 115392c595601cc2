"""Shared machinery for the benchmark opamp templates.

Both example circuits of the paper (folded-cascode, Fig. 7; Miller, Fig. 8)
follow the same evaluation recipe:

* build the transistor-level netlist at ``(d, s, theta)`` with the
  open-loop measurement bench attached,
* one DC solve gives power and the slew rate (from the bias currents and
  the compensation/load capacitance: a first-order estimate, validated
  against the transient engine in the test suite),
* AC measurements give A0 and CMRR (one 1 Hz solve) and f_t and PM (the
  unity-gain search); each runs only when a requested performance needs
  it, so an evaluation for operating-point values alone assembles no AC
  system,
* the functional constraints c(d) >= 0 (Sec. 5.1) are *electrical sizing
  rules* evaluated at the nominal statistical point: every analog
  transistor must conduct (overdrive above a margin) and sit in saturation
  (drain-source voltage above its saturation voltage by a margin) —
  the "transistors must be in saturation" rules the paper cites from [13].

:class:`OpampTemplate` implements this recipe; concrete circuits provide
the netlist builder and the performance mapping.
"""

from __future__ import annotations

import abc
import collections
import functools
import logging
import math
from typing import (Callable, Collection, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from ..circuit.batch import (BatchUnsupported, PROBE_RESISTANCE_FACTOR,
                             SampleBatchPlan, probe_maps)
from ..circuit.dc import DCResult, DcEffort, WarmStartCache, solve_dc
from ..circuit.netlist import Circuit
from ..counters import Counters
from ..errors import AnalysisError, ExtractionError, ReproError
from ..evaluation.measure import AssembledBench, OpenLoopOpampBench
from ..evaluation.template import CircuitTemplate, DesignParameter
from ..pdk.process import Process
from ..spec.operating import OperatingParameter, OperatingRange
from ..spec.specification import Performance, Spec
from ..statistics.space import (DeviceGeometry, LocalVariation,
                                PhysicalVariations, StatisticalSpace)

_LOG = logging.getLogger(__name__)

#: Required saturation margin ``vds - vdsat`` [V].
SAT_MARGIN = 0.05

#: Required overdrive ``vgs - vth`` [V] (device must actually conduct).
VOV_MARGIN = 0.05

#: Performance values reported when the testbench itself fails (dead
#: circuit, no DC convergence).  Chosen to violate every spec by a wide
#: margin so failed samples count as failures, not as crashes.
DEAD_CIRCUIT_PERFORMANCES = {
    "a0": -40.0, "ft": 0.0, "pm": -180.0, "cmrr": -40.0,
    "sr": 0.0, "power": 1e3, "noise": 1e6,
}

#: Rows per chunk of the sample-batched simulation path.  Large enough
#: to amortize the vectorized model evaluation and the per-chunk plan
#: bookkeeping (the two-stage array crosses 3x over the serial path at
#: this size), small enough that the per-chunk value arrays stay
#: cache-resident even for the array template.  Neither 16 nor 64 rows
#: beat it by 5% on the benchmark's verification Monte-Carlo.
DEFAULT_BATCH_SAMPLES = 32


class _ProbeGlobals(dict):
    """Probe-build global-variation mapping that refuses to be read.

    The probe build (see :mod:`repro.circuit.batch`) verifies that a
    builder consumes statistical variations only through the three
    supported accessors.  A builder reaching into ``pv.global_values``
    directly would be invisible to that check — so the probe's mapping
    raises instead, which fails the probe build and routes the template
    to the serial path."""

    def _refuse(self, *args, **kwargs):
        raise BatchUnsupported(
            "builder reads pv.global_values directly; the sample-batched "
            "path cannot verify it")

    __getitem__ = _refuse
    get = _refuse
    __contains__ = _refuse
    keys = _refuse
    values = _refuse
    items = _refuse
    __iter__ = _refuse


#: Significant decimal digits kept by the warm-start key quantization:
#: coarse enough that finite-difference probes (1e-3 relative) and nearby
#: Monte-Carlo samples land in the same anchor cell, fine enough that the
#: cell representative is a few Newton iterations from any member.
WARM_KEY_SIG = 2


def _warm_rep(value: float, sig: int = WARM_KEY_SIG) -> float:
    """Quantize ``value`` to its anchor-cell representative (the key *is*
    the representative, so the anchor is a pure function of the key —
    the property that keeps warm-started runs order-independent).

    ``sig`` controls the cell size; ``sig = WARM_KEY_SIG - 1`` yields the
    *parent* cell of the anchor-of-anchor chain (a strictly coarser
    quantization of the same point, hence itself a pure function of the
    fine key)."""
    if value == 0.0 or not math.isfinite(value):
        return float(value)
    scale = 10.0 ** (math.floor(math.log10(abs(value))) - sig + 1)
    return round(value / scale) * scale


def _unit(dim: int, i: int) -> np.ndarray:
    """Unit-sigma point on statistical axis ``i``."""
    e_i = np.zeros(dim)
    e_i[i] = 1.0
    return e_i


def default_operating_range() -> OperatingRange:
    """Industrial-style operating box: -40..125 C, VDD 3.0..3.6 V."""
    return OperatingRange([
        OperatingParameter("temp", -40.0, 125.0, 27.0),
        OperatingParameter("vdd", 3.0, 3.6, 3.3),
    ])


def local_variations(devices: Mapping[str, tuple]
                     ) -> Tuple[LocalVariation, ...]:
    """One vth and one beta local parameter per device of the table
    ``name -> (polarity, w, l)``, with Pelgrom sigmas bound to its
    geometry (design-parameter names or fixed values in meters)."""
    return tuple(
        LocalVariation(name=f"{prefix}_{device}", device=device, kind=kind,
                       polarity=polarity, geometry=DeviceGeometry(w=w, l=l))
        for device, (polarity, w, l) in devices.items()
        for prefix, kind in (("dvt", "vth"), ("dbeta", "beta")))


class OpampTemplate(CircuitTemplate):
    """Base class for the benchmark opamps; see module docstring."""

    #: devices subject to the conduction + saturation sizing rules
    saturation_devices: Tuple[str, ...] = ()

    def __init__(self, process: Process,
                 design_parameters: Sequence[DesignParameter],
                 performances: Sequence[Performance],
                 specs: Sequence[Spec],
                 polarities: Mapping[str, int],
                 local_devices: Mapping[str, tuple],
                 with_global: bool = True):
        """``polarities`` names every transistor the global variations
        reach, ``local_devices`` (see :func:`local_variations`) those that
        also carry local ones."""
        self.process = process
        space = StatisticalSpace(
            process, local_variations=local_variations(local_devices),
            with_global=with_global, device_polarities=polarities)
        constraint_names = []
        for device in self.saturation_devices:
            constraint_names.append(f"vov_{device}")
            constraint_names.append(f"sat_{device}")
        super().__init__(design_parameters, performances, specs,
                         default_operating_range(), space,
                         constraint_names)
        #: warm-start the DC solve of every testbench from a cached anchor
        #: operating point (set False to force cold homotopy solves, e.g.
        #: for benchmarking)
        self.warm_dc = True
        #: linear-solver backend spec for every solve this template runs
        #: ("auto"/"dense"/"sparse"; see :mod:`repro.circuit.linsolve`)
        self.linsolve = "auto"
        self._warm_cache = WarmStartCache()
        self._dc_effort = DcEffort()

    # -- hooks for concrete circuits -------------------------------------------
    @abc.abstractmethod
    def build(self, d: Mapping[str, float], pv: PhysicalVariations,
              theta: Mapping[str, float]) -> Circuit:
        """Construct the netlist with the measurement bench attached."""

    @abc.abstractmethod
    def extract(self, bench: OpenLoopOpampBench, d: Mapping[str, float],
                theta: Mapping[str, float],
                performances: Optional[Collection[str]] = None
                ) -> Dict[str, float]:
        """Map bench measurements to the requested performances
        (``None``: all declared ones), measuring only what they need
        (:func:`~repro.evaluation.template.measure_requested`)."""

    def local_vth_names(self) -> List[str]:
        """Names of the local threshold parameters (mismatch-analysis
        candidates); empty without local variations."""
        return [lv.name for lv in self.statistical_space.local_variations
                if lv.kind == "vth"]

    # -- one row: warm start, testbench, measurement ---------------------------
    def _warm_start(self, d: Mapping[str, float], s_hat: np.ndarray,
                    theta: Mapping[str, float],
                    key: Optional[tuple] = None) -> tuple:
        """``(x0, ft_hint)`` of one row after exactly one anchor lookup:
        its cell's warm anchor predicted at ``s_hat``, or ``(None,
        None)`` — a cold start — with ``warm_dc`` off or no anchor.
        ``key`` may pass the cell's :meth:`_warm_key`."""
        if self.warm_dc:
            anchor = self._warm_anchor(d, theta, key)
            if anchor is not None:
                x, slopes, ft_hint = anchor
                return x + slopes @ s_hat, ft_hint
        return None, None

    def _testbench(self, theta: Mapping[str, float], warm: tuple,
                   circuit: Optional[Circuit] = None,
                   op: Optional[DCResult] = None,
                   build: Optional[Callable[[], Circuit]] = None
                   ) -> OpenLoopOpampBench:
        """The bench of one row at ``theta``, started from ``warm = (x0,
        ft_hint)``: on the netlist ``circuit`` and, when given, its solved
        operating point ``op``, or for a row the plan solved, an
        :class:`AssembledBench` over its operating point ``op``
        (``build`` makes the netlist on first access)."""
        x0, ft_hint = warm
        bench = dict(out="out", supply_source="VDD", temp_c=theta["temp"],
                     x0=x0, ft_hint=ft_hint, linsolve=self.linsolve,
                     dc_effort=self._dc_effort)
        if build is None:
            return OpenLoopOpampBench(circuit, op=op, **bench)
        return AssembledBench(op, op.ac_systems, build, **bench)

    def _measure(self, bench: OpenLoopOpampBench, d: Mapping[str, float],
                 theta: Mapping[str, float],
                 performances: Optional[Collection[str]]
                 ) -> Dict[str, float]:
        """``extract``, or the requested performances' dead-circuit
        sentinels when the measurement fails (see :meth:`evaluate`)."""
        try:
            return self.extract(bench, d, theta, performances)
        except (AnalysisError, ExtractionError):
            return {name: DEAD_CIRCUIT_PERFORMANCES.get(name, 0.0)
                    for name in self.requested_performances(performances)}

    def _evaluate_row(self, d: Mapping[str, float], pv: PhysicalVariations,
                      theta: Mapping[str, float], warm: tuple,
                      performances: Optional[Collection[str]]
                      ) -> Dict[str, float]:
        """:meth:`evaluate`'s body once the row's physical variations and
        warm start are resolved; :meth:`evaluate_batch` runs it for every
        row its plan drops."""
        bench = self._testbench(theta, warm, self.build(d, pv, theta))
        return self._measure(bench, d, theta, performances)

    def _solve_dc_at(self, d: Mapping[str, float], s_hat: np.ndarray,
                     theta: Mapping[str, float],
                     seed: Callable[[], Optional[np.ndarray]] = lambda: None
                     ) -> Tuple[Circuit, DCResult]:
        """Build the testbench at ``(d, s_hat, theta)`` and solve its DC
        operating point from the Newton start ``seed()``, called between
        the build and the solve (``None``: the cold homotopy chain)."""
        circuit = self.build(d, self.statistical_space.to_physical(d, s_hat),
                             theta)
        return circuit, solve_dc(circuit, temp_c=theta["temp"], x0=seed(),
                                 backend=self.linsolve,
                                 effort=self._dc_effort)

    # -- warm-start anchors --------------------------------------------------------
    def _warm_key(self, d: Mapping[str, float],
                  theta: Mapping[str, float]) -> tuple:
        """Key of the anchor cell containing ``(d, theta)``."""
        return (tuple(_warm_rep(d[name]) for name in self.design_names),
                tuple((name, _warm_rep(theta[name]))
                      for name in sorted(theta)))

    def _warm_anchor(self, d: Mapping[str, float],
                     theta: Mapping[str, float],
                     key: Optional[tuple] = None) -> Optional[tuple]:
        """Warm-start anchor of the cell containing ``(d, theta)``:
        ``(x, slopes, ft)``.

        ``x`` is the DC solution at the cell's quantized representative
        point (nominal statistical point), solved with the full *cold*
        homotopy chain — never at whichever sample happened to arrive
        first — so the warm start, and therefore every downstream result,
        is a pure function of the evaluation point and identical between
        serial and parallel runs.

        ``slopes`` (``n x dim_s``) are unit-sigma secants of the
        operating point along each statistical axis, so the Newton start
        can be *predicted at the sample*: ``x0 = x + slopes @ s_hat``.
        ``ft`` (optional) is the representative's transit frequency, used
        to bracket the unity-gain search tightly.  Both are computed once
        per cell from the representative alone (order-independent), and
        both only seed searches that verify/fall back — a bad prediction
        can cost iterations, never correctness.

        On a cell miss the representative is not cold-solved directly:
        it is Newton-seeded from the cold-solved representative of its
        *parent* cell — the strictly coarser ``WARM_KEY_SIG - 1``
        quantization of the same point — so successive optimizer
        iterations with nearby ``d`` chain into the same parent anchors
        instead of cold-solving every new cell.  The
        parent key is a deterministic function of the fine key (never of
        solve history), and the seeded solve falls back to the full cold
        homotopy chain, so anchors stay pure functions of their keys:
        chaining affects iteration counts only, never results.

        Failed anchors are cached as None (the bench then cold starts,
        exactly the pre-warm-start behavior).  ``key`` may pass the
        cell's :meth:`_warm_key`, computed once for many rows.
        """
        if key is None:
            key = self._warm_key(d, theta)
        cached = self._warm_cache.lookup(key)
        if cached is not WarmStartCache._MISSING:
            return cached
        d_rep = dict(zip(self.design_names, key[0]))
        theta_rep = dict(key[1])
        try:
            circuit, op = self._solve_dc_at(
                d_rep, self.statistical_space.nominal(), theta_rep,
                lambda: self._chain_seed(key, d_rep, theta_rep))
            x = op.x
            try:
                ft = self._testbench(theta_rep, (None, None), circuit,
                                     op).transit_frequency()
            except (AnalysisError, ExtractionError):
                ft = None
            anchor = (x, self._anchor_slopes(d_rep, theta_rep, x), ft)
        except ReproError:
            anchor = None
        self._warm_cache.store(key, anchor)
        return anchor

    def _chain_seed(self, key: tuple, d_rep: Mapping[str, float],
                    theta_rep: Mapping[str, float]
                    ) -> Optional[np.ndarray]:
        """Newton seed for a fine cell's representative: the cold-solved
        representative of its parent (coarser) cell, or ``None`` when the
        parent coincides with the fine cell or its solve failed."""
        sig = WARM_KEY_SIG - 1
        parent_key = ("chain",
                      tuple(_warm_rep(v, sig) for v in key[0]),
                      tuple((name, _warm_rep(v, sig))
                            for name, v in key[1]))
        cache = self._warm_cache
        x_parent = cache.lookup_chain(parent_key)
        if x_parent is WarmStartCache._MISSING:
            d_parent = dict(zip(self.design_names, parent_key[1]))
            theta_parent = dict(parent_key[2])
            if d_parent == dict(zip(self.design_names, key[0])) \
                    and theta_parent == dict(key[1]):
                # The point already sits on the coarse grid: seeding from
                # the parent would just cold-solve the same point twice.
                return None
            try:
                x_parent = self._solve_dc_at(
                    d_parent, self.statistical_space.nominal(),
                    theta_parent)[1].x
            except ReproError:
                x_parent = None
            cache.counts["chain_solves"] += 1
            cache.store_chain(parent_key, x_parent)
        if x_parent is not None:
            cache.counts["chain_seeds"] += 1
        return x_parent

    def counters(self) -> Dict[str, Counters]:
        """The warm-anchor and per-strategy DC counts, by group."""
        return {"warm_cache": self._warm_cache.counts,
                "dc_effort": self._dc_effort}

    def warm_cache_stats(self) -> Dict[str, int]:
        """Warm-start cache counters and gauges for run telemetry."""
        return self._warm_cache.stats()

    def dc_effort_stats(self) -> Dict[str, int]:
        """Per-strategy DC solve counters for run telemetry."""
        return dict(self._dc_effort)

    def _anchor_slopes(self, d_rep: Mapping[str, float],
                       theta_rep: Mapping[str, float],
                       x: np.ndarray) -> np.ndarray:
        """Unit-sigma operating-point secants along each statistical axis
        (one warm solve per axis from the anchor solution).  Axes whose
        perturbed solve fails contribute a zero column — the prediction
        simply degrades toward the plain anchor.

        The axis solves run in lockstep through one sample-batched plan
        at ``(d_rep, theta_rep)``, in chunks of
        :data:`DEFAULT_BATCH_SAMPLES`, warm-started from ``x`` — bitwise
        the serial ``solve_dc(..., x0=x)`` per axis.  An axis the plan
        cannot carry, and every axis of a rejected plan, runs the serial
        solve instead (:meth:`_axis_slope`)."""
        space = self.statistical_space
        dim = space.dim
        slopes = np.zeros((x.size, dim))
        serial = list(range(dim))
        try:
            plan = self._batch_plan(d_rep, theta_rep) if dim > 1 else None
        except (BatchUnsupported, ReproError) as exc:
            self._log_plan_rejected(exc)
            plan = None
        if plan is not None:
            pv_of: dict = {}
            for i in range(dim):
                try:
                    pv_of[i] = space.to_physical(d_rep, _unit(dim, i))
                except ReproError:
                    continue  # a zero column, as in _axis_slope
            axes = list(pv_of)
            serial = []
            for start in range(0, len(axes), DEFAULT_BATCH_SAMPLES):
                chunk = axes[start:start + DEFAULT_BATCH_SAMPLES]
                plan.set_samples([pv_of[i] for i in chunk])
                x_sol, _, ok, strategies = plan.solve(
                    np.tile(x, (len(chunk), 1)))
                for k, i in enumerate(chunk):
                    if ok[k]:
                        self._dc_effort.count(strategies[k])
                        slopes[:, i] = x_sol[k] - x
                    else:
                        serial.append(i)
        for i in serial:
            slope = self._axis_slope(d_rep, theta_rep, x, i)
            if slope is not None:
                slopes[:, i] = slope
        return slopes

    def _axis_slope(self, d_rep: Mapping[str, float],
                    theta_rep: Mapping[str, float], x: np.ndarray,
                    i: int) -> Optional[np.ndarray]:
        """The serial secant along statistical axis ``i``: one warm
        ``solve_dc`` from ``x``; None when the perturbed solve fails."""
        try:
            x_i = self._solve_dc_at(
                d_rep, _unit(self.statistical_space.dim, i), theta_rep,
                lambda: x)[1].x
        except ReproError:
            return None
        return x_i - x if x_i.size == x.size else None

    def _log_plan_rejected(self, exc: BaseException) -> None:
        _LOG.debug("%s: sample-batched plan rejected, running serially: %s",
                   getattr(self, "name", type(self).__name__), exc)

    def evaluate(self, d: Mapping[str, float], s_hat: np.ndarray,
                 theta: Mapping[str, float],
                 performances: Optional[Collection[str]] = None
                 ) -> Dict[str, float]:
        """Simulate and extract the requested performances; a failed
        measurement yields spec-violating sentinel values for them
        rather than an exception — a manufactured circuit that cannot be
        measured (no gain crossing, and in pathological design corners
        not even a DC solution) is a yield loss, not a tool crash.  Only
        the requested performances are voided: a row whose f_t search
        fails keeps the values of a request that needs no f_t."""
        pv = self.statistical_space.to_physical(d, s_hat)
        return self._evaluate_row(d, pv, theta,
                                  self._warm_start(d, s_hat, theta),
                                  performances)

    def evaluate_batch(self, d: Mapping[str, float],
                       rows: Sequence[np.ndarray],
                       theta: Mapping[str, float],
                       performances: Optional[Collection[str]] = None
                       ) -> list:
        """Sample-batched evaluation: one vectorized lockstep homotopy
        chain per chunk of :data:`DEFAULT_BATCH_SAMPLES` statistical
        rows, bitwise identical to the serial loop.

        Warm-started and cold-started samples both run batched: a sample
        that fails the warm Newton stage re-enters the lockstep cold
        chain (cold Newton, gmin stepping, source stepping) instead of
        serializing the chunk; with ``warm_dc`` off the whole chunk
        starts at the cold stage, matching the serial ``solve_dc`` with
        no ``x0``.  ``extract`` then measures each carried row for
        ``performances`` with the scalar code on an
        :class:`~repro.evaluation.measure.AssembledBench`, whose operating
        point and (on first use) AC systems are read from the plan's
        arrays.  Any row the plan cannot carry — no warm anchor,
        non-finite warm start, singular matrix, exhausted chain — runs
        :meth:`evaluate`'s own body, so results *and* fault
        classification match the serial loop sample for sample.  A
        single row runs the serial loop.
        """
        if len(rows) <= 1:
            return super().evaluate_batch(d, rows, theta, performances)
        try:
            plan = self._batch_plan(d, theta)
        except (BatchUnsupported, ReproError) as exc:
            self._log_plan_rejected(exc)
            return super().evaluate_batch(d, rows, theta, performances)
        space = self.statistical_space
        size = plan.layout.size
        warm_key = self._warm_key(d, theta) if self.warm_dc else None
        entries: list = [None] * len(rows)
        for start in range(0, len(rows), DEFAULT_BATCH_SAMPLES):
            chunk = range(start, min(start + DEFAULT_BATCH_SAMPLES,
                                     len(rows)))
            # Row-order pre-pass: evaluate's to_physical and warm start.
            pv_of: dict = {}
            warm_of: dict = {}
            batched: list = []
            serial: Dict[int, str] = {}
            for i in chunk:
                try:
                    pv_of[i] = space.to_physical(d, rows[i])
                    warm_of[i] = self._warm_start(d, rows[i], theta,
                                                  warm_key)
                except Exception as exc:
                    entries[i] = exc
                    continue
                x0 = warm_of[i][0]
                if x0 is None and self.warm_dc:
                    serial[i] = "no anchor"
                elif x0 is None or (len(x0) == size
                                    and np.all(np.isfinite(x0))):
                    batched.append(i)
                else:  # solve_dc would skip the warm stage
                    serial[i] = "non-finite warm start"
            carried: dict = {}
            if batched:
                plan.set_samples([pv_of[i] for i in batched])
                x0s = np.stack([warm_of[i][0] for i in batched]) \
                    if self.warm_dc else None
                _, iters, ok, strategies = plan.solve(x0s)
                for k, i in enumerate(batched):
                    if ok[k]:
                        carried[i] = k
                    else:
                        serial[i] = "singular matrix or exhausted chain"
            if serial:
                self._log_serial_rows(serial, len(chunk))
            for i in chunk:
                if entries[i] is not None:
                    continue
                k = carried.get(i)
                try:
                    if k is None:
                        entries[i] = self._evaluate_row(
                            d, pv_of[i], theta, warm_of[i], performances)
                        continue
                    op = plan.operating_point(k, int(iters[k]),
                                              strategies[k])
                    bench = self._testbench(
                        theta, warm_of[i], op=op,
                        build=functools.partial(self.build, d, pv_of[i],
                                                theta))
                    # evaluate counts when extract touches the lazy
                    # bench.op; the batched operating point counts here.
                    self._dc_effort.count(strategies[k])
                    entries[i] = self._measure(bench, d, theta, performances)
                except Exception as exc:
                    entries[i] = exc
        return entries

    def _log_serial_rows(self, serial: Dict[int, str], n_rows: int) -> None:
        reasons = collections.Counter(serial.values())
        _LOG.debug("%s: %d of %d chunk rows run serially (%s)",
                   getattr(self, "name", type(self).__name__),
                   len(serial), n_rows,
                   ", ".join(f"{reason}: {count}"
                             for reason, count in reasons.items()))

    def _batch_plan(self, d: Mapping[str, float],
                    theta: Mapping[str, float]) -> SampleBatchPlan:
        """Build + verify the sample-batched plan for ``(d, theta)``:
        a prototype netlist at the nominal statistical point and a probe
        netlist at distinct per-device perturbations, compared device by
        device (see :mod:`repro.circuit.batch`)."""
        space = self.statistical_space
        proto = self.build(d, space.to_physical(d, space.nominal()), theta)
        dvto, beta = probe_maps(proto)
        probe_pv = PhysicalVariations(
            global_values=_ProbeGlobals(),
            device_delta_vto=dvto,
            device_beta_factor=beta,
            resistance_factor=PROBE_RESISTANCE_FACTOR)
        try:
            probe = self.build(d, probe_pv, theta)
        except BatchUnsupported:
            raise
        except Exception as exc:
            raise BatchUnsupported(
                f"probe build failed: {exc}") from exc
        return SampleBatchPlan(proto, probe, dvto, beta, theta["temp"],
                               self.linsolve)

    def constraints(self, d: Mapping[str, float],
                    theta: Optional[Mapping[str, float]] = None
                    ) -> Dict[str, float]:
        """Sizing rules at the nominal statistical point."""
        if theta is None:
            theta = self.operating_range.nominal()
        s_hat = self.statistical_space.nominal()
        pv = self.statistical_space.to_physical(d, s_hat)
        bench = self._testbench(theta, self._warm_start(d, s_hat, theta),
                                self.build(d, pv, theta))
        values: Dict[str, float] = {}
        try:
            ops = bench.op.operating_points()
        except Exception:
            # No DC solution at all: report every rule as badly violated.
            return {name: -1.0 for name in self.constraint_names}
        for device in self.saturation_devices:
            op = ops[device]
            values[f"vov_{device}"] = op["vov"] - VOV_MARGIN
            values[f"sat_{device}"] = (op["vds"] - op["vdsat"]) - SAT_MARGIN
        return values

    # -- shared sub-circuit builders -----------------------------------------------
    @staticmethod
    def add_mosfet(circuit: Circuit, pv: PhysicalVariations, name: str,
                   d_node: str, g_node: str, s_node: str, b_node: str,
                   model, w: float, l: float, m: int = 1) -> None:
        """Add a transistor with its statistical perturbations applied."""
        circuit.mosfet(name, d_node, g_node, s_node, b_node, model,
                       w=w, l=l, m=m,
                       delta_vto=pv.delta_vto(name),
                       beta_factor=pv.beta_factor(name))
