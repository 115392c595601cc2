"""Small-signal AC analysis.

The circuit is linearized around a previously solved DC operating point
(:class:`repro.circuit.dc.DCResult`).  Because every small-signal element
is either frequency-independent (conductances, controlled sources) or
scales linearly with ``j*omega`` (capacitances, inductances), the system
factors as

    (G + j*omega*B) x = rhs

with ``G``, ``B`` and ``rhs`` assembled **once** per operating point
(:class:`AcSystem`); each frequency point is then a single dense solve.
This matters: the transit-frequency search and the phase-margin sweep
evaluate dozens of frequencies per measurement, so frequency batches are
stacked into one ``(F, n, n)`` array and dispatched as a **single
broadcast** ``np.linalg.solve`` (:meth:`AcSystem.solve_many`).  The
gufunc runs the same LAPACK routine per slice, so batched solutions are
bitwise identical to one-at-a-time solves.

Helpers locate unity-gain crossings and phase margins on a transfer
function, which the evaluation layer turns into opamp performances.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import ExtractionError
from .dc import DCResult
from .devices import Stamper
from .linsolve import resolve_backend
from .netlist import Circuit, is_ground


class AcSystem:
    """Assembled small-signal system ``(G + j*omega*B) x = rhs``.

    Rebuild (cheap) after changing any source's ``ac`` value — the sources
    are baked into ``rhs``.

    The linear algebra is delegated to a backend engine
    (:mod:`repro.circuit.linsolve`): dense LAPACK below the auto node
    threshold (bit-identical to the historic code), pattern-cached
    ``splu`` above it.  ``freq = 0`` is solved as the real-valued ``G``
    system on both engines — at ``omega = 0`` the ``B`` stack drops out
    exactly, so a complex solve would only add a structurally-zero
    imaginary half.
    """

    def __init__(self, circuit: Circuit, op: DCResult, backend=None):
        self._circuit = circuit
        layout = circuit.layout()
        self._layout = layout
        self._backend = resolve_backend(backend, layout.n_nodes)
        self._engine = self._backend.ac_engine(circuit, layout,
                                               op.operating_points())
        self._rhs = self._engine.rhs

    @classmethod
    def assembled(cls, circuit: Circuit, backend, engine) -> "AcSystem":
        """A system over an already-assembled backend ``engine`` of
        ``circuit`` (e.g. one Monte-Carlo row of a sample-batched plan)."""
        system = cls.__new__(cls)
        system._circuit = circuit
        system._layout = circuit.layout()
        system._backend = backend
        system._engine = engine
        system._rhs = engine.rhs
        return system

    # Dense matrix views for consumers that need raw ``(G, B)`` (e.g.
    # the noise solver's adjoint transpose solve).
    @property
    def _g(self) -> np.ndarray:
        return self._engine.dense_g()

    @property
    def _b(self) -> np.ndarray:
        return self._engine.dense_b()

    def with_drives(self) -> "AcSystem":
        """Cheap rebuild after changing source ``ac`` drives.

        The stamped ``(G, B)`` matrices do not depend on any source's
        ``ac`` value, so a re-drive shares them and restamps only the rhs
        (sources are the only rhs contributors).  The result is bitwise
        identical to a full ``AcSystem(circuit, op)`` rebuild at a
        fraction of the stamping cost — and on the sparse engine shares
        factorizations with its parent, so solving a re-driven system at
        an already-factored frequency is pure back-substitution.
        """
        from .devices import Isource, Vsource
        layout = self._layout
        st = Stamper(layout.size, dtype=complex)
        zeros = np.zeros(layout.size, dtype=complex)
        for dev, nodes, branches in zip(self._circuit.devices,
                                        layout.device_nodes,
                                        layout.device_branches):
            if isinstance(dev, (Vsource, Isource)):
                dev.stamp_ac_parts(st, st, nodes, branches, None)
        return AcSystem.assembled(self._circuit, self._backend,
                                  self._engine.with_rhs(st.rhs + zeros))

    def solve(self, freq: float) -> np.ndarray:
        """Solve for the full phasor vector at ``freq`` [Hz]."""
        return self._engine.solve(2.0 * math.pi * freq)

    @property
    def factors_per_frequency(self) -> bool:
        """True on the sparse engine, which re-factors per frequency:
        a batch of frequencies costs what solving them one at a time
        does, so a search gains by stopping early.  The dense engine
        solves a batch in one broadcast LAPACK call."""
        return self._backend.name == "sparse"

    def solve_many(self, freqs: Sequence[float]) -> np.ndarray:
        """Phasor vectors at every frequency in ``freqs``, shape
        ``(F, size)``.

        The dense engine stacks the per-frequency systems into one
        ``(F, n, n)`` array and runs a single broadcast
        :func:`np.linalg.solve` (each slice bitwise identical to
        :meth:`solve` at that frequency); the sparse engine re-factors
        per frequency on the shared symbolic pattern.
        """
        omega = 2.0 * np.pi * np.asarray(freqs, dtype=float)
        return self._engine.solve_many(omega)

    def node_index(self, node: str) -> int:
        index = self._layout.node_index.get(node)
        if index is None:
            if is_ground(node):
                return -1
            raise KeyError(f"unknown node {node!r}")
        return index

    def transfer(self, node: str, freq: float) -> complex:
        """Phasor of ``node`` at one frequency."""
        index = self.node_index(node)
        if index < 0:
            return 0.0 + 0.0j
        return complex(self.solve(freq)[index])

    def transfer_many(self, node: str, freqs: Sequence[float]
                      ) -> np.ndarray:
        """Phasor of ``node`` at every frequency (one batched solve)."""
        index = self.node_index(node)
        n = len(np.asarray(freqs, dtype=float))
        if index < 0:
            return np.zeros(n, dtype=complex)
        return self.solve_many(freqs)[:, index]


class ACResult:
    """Complex node phasors over a frequency grid."""

    def __init__(self, system: AcSystem, freqs: np.ndarray,
                 solutions: np.ndarray):
        self._system = system
        self.freqs = freqs
        self._solutions = solutions  # shape (n_freq, size)

    def voltage(self, node: str) -> np.ndarray:
        """Complex phasor of ``node`` at every frequency point."""
        index = self._system.node_index(node)
        if index < 0:
            return np.zeros(len(self.freqs), dtype=complex)
        return self._solutions[:, index]

    def transfer(self, node: str) -> np.ndarray:
        """Alias of :meth:`voltage`; with a unit AC source the node phasor
        *is* the transfer function."""
        return self.voltage(node)


def solve_ac(circuit: Circuit, op: DCResult,
             freqs: Sequence[float], backend=None) -> ACResult:
    """Run an AC analysis at the given frequencies (Hz)."""
    system = AcSystem(circuit, op, backend=backend)
    freqs = np.asarray(list(freqs), dtype=float)
    solutions = system.solve_many(freqs)
    return ACResult(system, freqs, solutions)


def log_sweep(f_start: float, f_stop: float, points_per_decade: int = 10
              ) -> np.ndarray:
    """Logarithmically spaced frequency grid, inclusive of both ends."""
    if f_start <= 0 or f_stop <= f_start:
        raise ExtractionError(
            f"invalid sweep range [{f_start:g}, {f_stop:g}]")
    decades = math.log10(f_stop / f_start)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(math.log10(f_start), math.log10(f_stop), n)


def transfer_at(circuit: Circuit, op: DCResult, node: str,
                freq: float, backend=None) -> complex:
    """Single-frequency transfer-function evaluation (one-shot API; build
    an :class:`AcSystem` directly when evaluating many frequencies)."""
    return AcSystem(circuit, op, backend=backend).transfer(node, freq)


def shared_matrix_transfers(systems: Sequence[AcSystem], node: str,
                            freq: float) -> list:
    """Transfers of several systems that share ``(G, B)`` but differ in
    their source drives (rhs) — e.g. the differential and common-mode
    benches of one operating point — via a single multi-rhs solve.

    LAPACK factorizes the matrix once and back-substitutes per column, so
    each value is bitwise identical to ``system.transfer(node, freq)``.
    Falls back to individual solves when the matrices actually differ.
    """
    first = systems[0]
    if len(systems) == 1 or not all(
            first._engine.same_matrix(s._engine) for s in systems[1:]):
        return [s.transfer(node, freq) for s in systems]
    index = first.node_index(node)
    if index < 0:
        return [0.0 + 0.0j] * len(systems)
    omega = 2.0 * math.pi * freq
    rhs = np.stack([s._rhs for s in systems], axis=1)
    x = first._engine.solve_rhs(omega, rhs, f"at f={freq:g} Hz")
    return [complex(x[index, k]) for k in range(len(systems))]


#: Interior points per refinement round of the unity-gain search.  Each
#: round shrinks the bracket by ``SECTION_POINTS + 1``x with *one* batched
#: solve on the dense engine (the sparse engine evaluates the points left
#: to right and stops at the first one at or below unity).  The stacked
#: solve's cost is nearly proportional to the *total* point count (the
#: per-round overhead is tiny), so the sweet spot
#: minimizes ``P / log(P + 1)``: measured on the folded-cascode bench,
#: ``P = 4`` (~13 rounds, 52 stacked solves) beats both classic bisection
#: (``SECTION_POINTS = 1``, kept as the benchmark's legacy mode, ~31
#: one-at-a-time solves) and wider sections.
SECTION_POINTS = 4


def _unity_bracket(system: AcSystem, node: str, f_lo: float,
                   f_hi: float) -> Tuple[float, float]:
    """``(|H(f_lo)|, |H(f_hi)|)``, verified to bracket the unity-gain
    crossing; raises :class:`ExtractionError` otherwise."""
    g_lo = abs(system.transfer(node, f_lo))
    if g_lo <= 1.0:
        raise ExtractionError(
            f"gain at {f_lo:g} Hz is {g_lo:.3g} <= 1; no transit frequency")
    g_hi = abs(system.transfer(node, f_hi))
    if g_hi >= 1.0:
        raise ExtractionError(
            f"gain at {f_hi:g} Hz is {g_hi:.3g} >= 1; sweep range too small")
    return g_lo, g_hi


def unity_gain_frequency(system: AcSystem, node: str,
                         f_lo: float = 1.0, f_hi: float = 1e12,
                         tol: float = 1e-8) -> float:
    """Locate the unity-gain crossing |H(f)| = 1 on log f.

    Multi-section refinement: each round evaluates
    :data:`SECTION_POINTS` interior frequencies and re-brackets around
    the first crossing from above.  The dense engine evaluates them with
    one batched solve; a system that factors per frequency evaluates
    them left to right and stops at the first one at or below unity —
    the only points the next bracket reads — which gives the same
    bracket with fewer factorizations.  With ``SECTION_POINTS = 1`` this
    reduces exactly to classic bisection (same bracket updates, same
    result).

    Requires |H(f_lo)| > 1 > |H(f_hi)|; raises :class:`ExtractionError`
    otherwise (e.g. a dead circuit whose gain never exceeds one).
    """
    _unity_bracket(system, node, f_lo, f_hi)
    lo, hi = math.log10(f_lo), math.log10(f_hi)
    while hi - lo > tol:
        grid = np.linspace(lo, hi, SECTION_POINTS + 2)[1:-1]
        j = _first_at_or_below_unity(system, node, 10.0 ** grid)
        if j is None:
            lo = float(grid[-1])
        else:
            hi = float(grid[j])
            if j > 0:
                lo = float(grid[j - 1])
    return 10.0 ** (0.5 * (lo + hi))


def _first_at_or_below_unity(system: AcSystem, node: str,
                             freqs: np.ndarray) -> Optional[int]:
    """Index of the first of ``freqs`` where ``|H| <= 1``, or None.  A
    per-frequency-factoring system solves only up to it; each point goes
    through the same batched call either way, so the answer is the same
    bit for bit."""
    if system.factors_per_frequency:
        for j in range(len(freqs)):
            if np.abs(system.transfer_many(node, freqs[j:j + 1]))[0] <= 1.0:
                return j
        return None
    below = np.nonzero(np.abs(system.transfer_many(node, freqs)) <= 1.0)[0]
    return int(below[0]) if below.size else None


def refine_unity_crossing(system: AcSystem, node: str,
                          f_lo: float, f_hi: float,
                          g_lo: float, g_hi: float,
                          tol: float) -> float:
    """Illinois (modified false-position) refinement of the unity-gain
    crossing inside a verified bracket ``|H(f_lo)| = g_lo > 1 > g_hi =
    |H(f_hi)|``.

    Works on ``(log10 f, log10 |H|)``, where a single-pole roll-off is
    exactly linear — so the secant step typically lands within ``tol`` of
    the crossing in 3-5 solves, against the ~30 solves of the sectioned
    bracket sweep over the same span.  The Illinois side-halving keeps a
    stale endpoint from pinning the iterate, guaranteeing the bracket
    shrinks below ``tol`` even on pathological gain curves.  Used by the
    warm transit-frequency path, where the bracket is already tight
    (``ft_hint / 2`` .. ``2 * ft_hint``); the cold path keeps the batched
    section sweep of :func:`unity_gain_frequency`.
    """
    lo, hi = math.log10(f_lo), math.log10(f_hi)
    y_lo, y_hi = math.log10(g_lo), math.log10(g_hi)
    side = 0
    for _ in range(80):
        if hi - lo <= tol:
            break
        u = (lo * y_hi - hi * y_lo) / (y_hi - y_lo)
        if not lo < u < hi:
            u = 0.5 * (lo + hi)
        g = abs(system.transfer(node, 10.0 ** u))
        if g <= 0.0:
            raise ExtractionError(
                f"zero gain at {10.0 ** u:g} Hz inside the unity bracket")
        y = math.log10(g)
        if y > 0.0:
            lo, y_lo = u, y
            if side == -1:
                y_hi *= 0.5
            side = -1
        elif y < 0.0:
            hi, y_hi = u, y
            if side == 1:
                y_lo *= 0.5
            side = 1
        else:
            return 10.0 ** u
    return 10.0 ** (0.5 * (lo + hi))


def warm_unity_crossing(system: AcSystem, node: str,
                        f_lo: float, f_hi: float,
                        tol: float = 1e-8) -> float:
    """Unity-gain crossing on a *hinted* bracket ``[f_lo, f_hi]``.

    Verifies the bracket with two endpoint solves — raising
    :class:`ExtractionError` with the same precondition semantics as
    :func:`unity_gain_frequency` when the crossing moved outside it —
    then hands off to the fast :func:`refine_unity_crossing` secant
    search.  Both the serial and the sample-batched measurement paths
    call this same function, so their warm transit frequencies agree
    bitwise.
    """
    g_lo, g_hi = _unity_bracket(system, node, f_lo, f_hi)
    return refine_unity_crossing(system, node, f_lo, f_hi, g_lo, g_hi, tol)


def phase_margin(system: AcSystem, node: str,
                 f_unity: Optional[float] = None) -> float:
    """Phase margin in degrees: ``180 + phase(H(f_t))``.

    ``f_unity`` may be supplied to reuse an already located transit
    frequency.  The phase is unwrapped from DC so multi-pole phase
    accumulation beyond -180 degrees is handled correctly.
    """
    if f_unity is None:
        f_unity = unity_gain_frequency(system, node)
    # Unwrap the phase from well below the first pole up to f_t.
    freqs = log_sweep(max(f_unity * 1e-6, 0.1), f_unity, points_per_decade=8)
    h = system.transfer_many(node, freqs)
    phases = np.unwrap(np.angle(h))
    # Reference the unwrapped phase so DC phase maps to 0 (or 180 for an
    # inverting path).
    p0 = phases[0]
    if abs(math.remainder(p0, 2 * math.pi)) > math.pi / 2:
        phases = phases - math.pi * round(p0 / math.pi)
    else:
        phases = phases - 2 * math.pi * round(p0 / (2 * math.pi))
    return math.degrees(phases[-1]) + 180.0
