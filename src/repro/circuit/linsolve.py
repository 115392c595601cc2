"""Pluggable linear-solver backends for the MNA engines.

Every analysis in this package reduces to repeated solves of MNA systems
that share one sparsity pattern: the DC Newton loop re-stamps only
nonlinear devices into a fixed structure, every AC frequency point
re-scales the same ``(G, B)`` pair, and multi-rhs measurements reuse one
matrix outright.  Two backends exploit this to different degrees:

``DenseBackend``
    Wraps today's dense code paths bit-identically: NumPy ``Stamper``
    assembly and LAPACK ``np.linalg.solve`` (including the broadcast
    ``(F, n, n)`` batch form for AC sweeps).  Right at opamp size
    (~10-30 unknowns) where sparse bookkeeping costs more than it saves.

``SparseBackend``
    Assembles device stamps directly into COO triplets
    (:class:`TripletStamper`), computes the CSC sparsity pattern **once
    per circuit topology** (cached on :class:`~repro.circuit.netlist.MnaLayout`,
    keyed by analysis kind), and re-fills only the numeric values on
    every solve.  Factorizations come from ``scipy.sparse.linalg.splu``;
    multi-rhs solves are triangular back-substitutions on one
    factorization, and AC sweeps re-factor per frequency while reusing
    the symbolic structure and the pre-merged ``(G, B)`` value arrays.

    One subtlety keeps the pattern cache honest: a MOSFET swaps its
    drain/source stamp indices when ``vds`` changes sign, so the DC
    triplet pattern is *not* strictly fixed across Newton iterations.
    The cached pattern therefore stores its fingerprint (the raw
    row/column sequence of the stamp calls) and transparently rebuilds
    when a stamp sequence with a different fingerprint shows up.

Backend selection is automatic by node count (:func:`resolve_backend`):
circuits below :data:`AUTO_SPARSE_MIN_NODES` unknowns stay on the dense
path — which keeps every pre-existing template bit-identical — while
large templates (e.g. ``two_stage_array``) switch to sparse.  An explicit
``"dense"``/``"sparse"`` choice comes from a template's ``linsolve``
attribute or a direct ``backend=`` argument of the analyses.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

try:  # private SuperLU entry point backing scipy.sparse.linalg.splu
    from scipy.sparse.linalg._dsolve import _superlu as _superlu_mod
except ImportError:  # older/newer scipy layout
    _superlu_mod = None

from ..errors import ReproError, SingularMatrixError
from .devices import Stamper
from .netlist import Circuit, MnaLayout

#: Node count at or above which ``"auto"`` selects the sparse backend.
#: Calibrated in-container: on ladder/hub-structured MNA matrices the
#: splu path breaks even with dense LAPACK near ~120 unknowns and wins
#: 4-20x by ~260; every shipped opamp template (~10-30 nodes) stays
#: dense — and therefore bit-identical to the pre-backend code.
AUTO_SPARSE_MIN_NODES = 120


class TripletStamper:
    """COO-triplet MNA accumulator, duck-typed to :class:`Stamper`.

    Devices stamp into it exactly as into the dense ``Stamper`` (ground
    index ``-1`` silently discarded); instead of scattering into an
    ``(n, n)`` array it records ``(row, col, value)`` triplets whose
    *sequence* — for a fixed circuit topology and operating region — is
    identical call after call, which is what makes the cached-pattern
    fill (:class:`SparsePattern`) a single ``np.bincount``.
    """

    def __init__(self, size: int, dtype=float):
        self.size = size
        self.rows: List[int] = []
        self.cols: List[int] = []
        self.vals: List[complex] = []
        self.rhs = np.zeros(size, dtype=dtype)

    def add(self, row: int, col: int, value) -> None:
        if row >= 0 and col >= 0:
            self.rows.append(row)
            self.cols.append(col)
            self.vals.append(value)

    def add_rhs(self, row: int, value) -> None:
        if row >= 0:
            self.rhs[row] += value

    def add_conductance(self, a: int, b: int, g) -> None:
        self.add(a, a, g)
        self.add(b, b, g)
        self.add(a, b, -g)
        self.add(b, a, -g)

    def add_diagonal(self, n: int, value: float) -> None:
        """Stamp ``value`` onto the first ``n`` diagonal entries (gmin)."""
        self.rows.extend(range(n))
        self.cols.extend(range(n))
        self.vals.extend([value] * n)


class SparsePattern:
    """Symbolic CSC structure of one stamp-call sequence.

    Built once per (topology, analysis-kind); afterwards a numeric fill
    is ``np.bincount(slot_map, weights=values)`` — every triplet knows
    which deduplicated CSC slot it accumulates into.
    """

    __slots__ = ("size", "rows", "cols", "slot_map", "indices", "indptr",
                 "nnz", "_template", "_factorizer")

    def __init__(self, rows: np.ndarray, cols: np.ndarray, size: int):
        self.size = size
        self.rows = rows
        self.cols = cols
        order = np.lexsort((rows, cols))
        r, c = rows[order], cols[order]
        if r.size == 0:
            raise SingularMatrixError("empty MNA system has no pattern")
        first = np.empty(r.size, dtype=bool)
        first[0] = True
        first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        slot_of_sorted = np.cumsum(first) - 1
        slot_map = np.empty(r.size, dtype=np.intp)
        slot_map[order] = slot_of_sorted
        self.slot_map = slot_map
        self.indices = r[first].astype(np.int32)
        self.nnz = int(self.indices.size)
        counts = np.bincount(c[first], minlength=size)
        indptr = np.zeros(size + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        self.indptr = indptr
        self._template = None
        self._factorizer = None

    def matches(self, rows: np.ndarray, cols: np.ndarray) -> bool:
        """Fingerprint check: same stamp-call sequence as when built?"""
        return (rows.size == self.rows.size
                and np.array_equal(rows, self.rows)
                and np.array_equal(cols, self.cols))

    def fill(self, values: np.ndarray) -> np.ndarray:
        """Deduplicated CSC data array for one triplet value vector."""
        if np.iscomplexobj(values):
            return (np.bincount(self.slot_map, weights=values.real,
                                minlength=self.nnz)
                    + 1j * np.bincount(self.slot_map, weights=values.imag,
                                       minlength=self.nnz))
        return np.bincount(self.slot_map, weights=values,
                           minlength=self.nnz)

    def factor(self, data: np.ndarray, context: str):
        """Factor one filled CSC ``data`` vector on this pattern.

        ``_splu_factor(self.matrix(data), context)`` with scipy's
        per-call ``splu`` setup (format checks, index casting,
        option-dict assembly — ~35us/call) and the column ordering
        hoisted into a per-pattern :class:`PatternFactorizer`, which
        matters to hot loops that factor the same pattern thousands of
        times per run.  The factors are SuperLU's own except on exact
        pivot ties (see :class:`PatternFactorizer`)."""
        f = self._factorizer
        if f is None:
            f = self._factorizer = PatternFactorizer(self)
        return f.factor(data, context)

    def matrix(self, data: np.ndarray) -> sp.csc_matrix:
        # Reuse one CSC shell per pattern: indices/indptr never change,
        # so per-iteration assembly is a plain ``data`` swap (skipping
        # construction and format validation).  Callers consume the
        # matrix immediately (factor or densify) and never keep it.
        mat = self._template
        if mat is None:
            mat = sp.csc_matrix((data, self.indices, self.indptr),
                                shape=(self.size, self.size))
            self._template = mat
        else:
            mat.data = data
        return mat


def get_pattern(layout: MnaLayout, kind: str, rows: np.ndarray,
                cols: np.ndarray) -> SparsePattern:
    """The cached :class:`SparsePattern` for ``kind`` on ``layout``,
    rebuilt transparently when the stamp fingerprint changed (MOSFET
    drain/source swap regions)."""
    cache = layout.sparse_patterns
    pattern = cache.get(kind)
    if pattern is None or not pattern.matches(rows, cols):
        pattern = SparsePattern(rows, cols, layout.size)
        cache[kind] = pattern
    return pattern


def _splu_factor(matrix: sp.csc_matrix, context: str):
    """``splu`` with the package's error taxonomy: a structurally or
    numerically singular matrix raises :class:`SingularMatrixError`, the
    same class the dense path maps ``LinAlgError`` to."""
    try:
        # MMD on A^T + A: MNA matrices are structurally near-symmetric,
        # and this ordering measures a few percent faster than the
        # COLAMD default at these sizes.
        return splu(matrix, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise SingularMatrixError(f"singular MNA matrix in {context}: "
                                  f"{exc}") from exc
    except ValueError as exc:  # structurally deficient (empty row/col)
        raise SingularMatrixError(
            f"structurally singular MNA matrix in {context}: {exc}"
        ) from exc


#: Exactly the option dict ``splu`` builds for
#: ``permc_spec="MMD_AT_PLUS_A"``, and the same with the identity column
#: ordering (for matrices whose columns are already in that order).
_MMD_OPTIONS = dict(DiagPivotThresh=None, ColPerm="MMD_AT_PLUS_A",
                    PanelSize=None, Relax=None)
_NATURAL_OPTIONS = dict(_MMD_OPTIONS, ColPerm="NATURAL")

#: Column orderings learned by :class:`PatternFactorizer`, keyed by CSC
#: structure and shared by every pattern with that structure (each
#: per-sample circuit of the scalar loop has its own patterns): the
#: permuted structure ``(args, gather, perm_c)``, or ``False`` for a
#: structure that stays on the MMD path.  At most :data:`_ORDERINGS_MAX`
#: entries; the oldest is dropped first, and re-learning it gives the
#: same ordering (it depends on the structure alone).
_ORDERINGS: dict = {}
_ORDERINGS_MAX = 64


class _PermutedLU:
    """Factorization of ``A[:, iperm]`` (columns in the order ``perm_c``
    assigns them) that solves ``A x = b``: ``x = y[perm_c]`` is the very
    gather SuperLU's own solve ends with."""

    __slots__ = ("_lu", "_perm_c")

    def __init__(self, lu, perm_c: np.ndarray):
        self._lu = lu
        self._perm_c = perm_c

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)[self._perm_c]


class PatternFactorizer:
    """Per-pattern ``splu`` with scipy's call setup and SuperLU's column
    ordering hoisted out.

    ``scipy.sparse.linalg.splu`` re-derives the same arguments on every
    call — CSC format checks, ``intc`` index casts, the SuperLU option
    dict — before handing off to ``_superlu.gstrf``.  A pattern's
    structure never changes, so those derivations are computed once here
    and ``gstrf`` is then invoked directly.  The pattern's fill output is
    already deduplicated, column-sorted and C-contiguous, so scipy's
    canonicalization steps are no-ops by construction.

    ``gstrf`` also recomputes the MMD column ordering on every call, and
    it takes no ``perm_c``.  The ordering depends on the structure alone,
    so it is learned once per structure — from one MMD factorization,
    kept in :data:`_ORDERINGS` — and *every* factorization, the first
    included, factors the column-permuted matrix with the ``NATURAL``
    ordering.  That is the matrix SuperLU factors internally under MMD,
    so L, U and the pivots are :func:`_splu_factor`'s and
    :class:`_PermutedLU` un-permutes the solution with SuperLU's own
    final gather.  Every call takes the same route, so a factorization
    never depends on what the process factored before: a per-sample
    circuit, a reused batched-plan pattern and a pool worker factor one
    matrix identically.  Should the natural ordering of the permuted
    structure not come back as the identity, the structure stays on the
    MMD path.

    One caveat: on an exact magnitude tie between a column's diagonal
    and another pivot candidate, SuperLU's threshold pivoting prefers
    the diagonal, which it locates through ``perm_c``.  On the permuted
    structure that reference moves, so such a tie may pick a different
    valid pivot than :func:`_splu_factor` — the same one for every
    factorizer.  The engines' matrices carry gmin (DC) or the ``1e-12``
    stabilizer (AC) on every node diagonal, and no tie has been seen on
    them; a raw DC stamp without gmin does show one.

    If scipy's private entry point is absent or its signature moved,
    every call transparently falls back to :func:`_splu_factor`.
    """

    __slots__ = ("_csc", "_args", "_ordering")

    def __init__(self, pattern: SparsePattern):
        # The structure only: a reference back to the pattern (which
        # caches this factorizer) would make every pattern a reference
        # cycle that outlives its last use.
        self._csc = (pattern.indices, pattern.indptr, pattern.size)
        self._args = None
        #: this structure's :data:`_ORDERINGS` entry (``None``: not
        #: looked up yet)
        self._ordering = None
        if _superlu_mod is not None:
            indices = np.ascontiguousarray(pattern.indices, dtype=np.intc)
            indptr = np.ascontiguousarray(pattern.indptr, dtype=np.intc)
            self._args = (pattern.size, pattern.nnz, indices, indptr)

    def _permute(self, perm_c: np.ndarray) -> tuple:
        """The CSC structure of ``A[:, iperm]`` plus the gather taking
        ``A``'s data to it (``perm_c[i] = j``: column ``i`` moves to
        ``j``)."""
        size, nnz, indices, indptr = self._args
        iperm = np.argsort(perm_c)
        counts = np.diff(indptr)[iperm]
        p_indptr = np.zeros(size + 1, dtype=np.intc)
        np.cumsum(counts, out=p_indptr[1:])
        gather = np.repeat(indptr[iperm] - p_indptr[:-1], counts) \
            + np.arange(nnz)
        p_indices = np.ascontiguousarray(indices[gather], dtype=np.intc)
        return (size, nnz, p_indices, p_indptr), gather

    def _gstrf(self, args: tuple, data: np.ndarray, options: dict):
        size, nnz, indices, indptr = args
        return _superlu_mod.gstrf(
            size, nnz, data, indices, indptr,
            csc_construct_func=sp.csc_array, ilu=False, options=options)

    def _splu(self, data: np.ndarray, context: str):
        indices, indptr, size = self._csc
        return _splu_factor(sp.csc_matrix((data, indices, indptr),
                                          shape=(size, size)), context)

    def _learn(self, key: tuple, data: np.ndarray):
        """Learn the structure's ordering from an MMD factorization of
        ``data`` and return ``data``'s factorization on it."""
        mmd = self._gstrf(self._args, data, _MMD_OPTIONS)
        # A copy: the attribute is a view that keeps the whole
        # factorization alive.
        perm_c = np.array(mmd.perm_c)
        args, gather = self._permute(perm_c)
        lu = self._gstrf(args, data[gather], _NATURAL_OPTIONS)
        if np.array_equal(lu.perm_c, np.arange(args[0])):
            ordering, result = (args, gather, perm_c), _PermutedLU(lu,
                                                                   perm_c)
        else:
            ordering, result = False, mmd
        if len(_ORDERINGS) >= _ORDERINGS_MAX:
            _ORDERINGS.pop(next(iter(_ORDERINGS)), None)
        _ORDERINGS[key] = self._ordering = ordering
        return result

    def factor(self, data: np.ndarray, context: str):
        if self._args is None:
            return self._splu(data, context)
        try:
            ordering = self._ordering
            if ordering is None:
                _, _, indices, indptr = self._args
                key = (indptr.tobytes(), indices.tobytes())
                ordering = self._ordering = _ORDERINGS.get(key)
                if ordering is None:
                    return self._learn(key, data)
            if ordering is False:
                return self._gstrf(self._args, data, _MMD_OPTIONS)
            args, gather, perm_c = ordering
            return _PermutedLU(self._gstrf(args, data[gather],
                                           _NATURAL_OPTIONS), perm_c)
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise SingularMatrixError(f"singular MNA matrix in {context}: "
                                      f"{exc}") from exc
        except ValueError as exc:  # structurally deficient (empty row/col)
            raise SingularMatrixError(
                f"structurally singular MNA matrix in {context}: {exc}"
            ) from exc
        except TypeError:  # gstrf signature changed
            self._args = None
            return self._splu(data, context)


# -- DC systems ---------------------------------------------------------------
class DenseDcSystem:
    """Today's dense DC assembly, verbatim: stamp linear devices (and the
    gmin diagonal) once, copy + re-stamp nonlinear devices per Newton
    iteration, LAPACK-solve the full matrix."""

    def __init__(self, circuit: Circuit, layout: MnaLayout, gmin: float):
        self._circuit = circuit
        self._layout = layout
        base = Stamper(layout.size)
        for dev, nodes, branches in zip(circuit.devices,
                                        layout.device_nodes,
                                        layout.device_branches):
            if dev.linear:
                dev.stamp_dc(base, np.zeros(0), nodes, branches)
        if gmin > 0.0:
            diag = np.arange(layout.n_nodes)
            base.matrix[diag, diag] += gmin
        self._base = base

    def solve_at(self, x: np.ndarray) -> np.ndarray:
        circuit, layout = self._circuit, self._layout
        st = Stamper(layout.size)
        st.matrix[...] = self._base.matrix
        st.rhs[...] = self._base.rhs
        for dev, nodes, branches in zip(circuit.devices,
                                        layout.device_nodes,
                                        layout.device_branches):
            if not dev.linear:
                dev.stamp_dc(st, x, nodes, branches)
        try:
            return np.linalg.solve(st.matrix, st.rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"singular MNA matrix in circuit {circuit.title!r} "
                f"(floating node or source loop?): {exc}") from exc


class SparseDcSystem:
    """Sparse DC assembly: linear-device triplets frozen once per
    ``(gmin)`` stage, nonlinear triplets appended per Newton iteration,
    numeric fill through the layout-cached pattern, ``splu`` solve.

    The symbolic pattern survives across Newton iterations, gmin/source
    stepping stages *and* warm-started re-evaluations of the same
    topology — only the numeric factorization is redone per iteration.
    """

    def __init__(self, circuit: Circuit, layout: MnaLayout, gmin: float):
        self._circuit = circuit
        self._layout = layout
        st = TripletStamper(layout.size)
        self._nonlinear = []
        for dev, nodes, branches in zip(circuit.devices,
                                        layout.device_nodes,
                                        layout.device_branches):
            if dev.linear:
                dev.stamp_dc(st, np.zeros(0), nodes, branches)
            else:
                self._nonlinear.append((dev, nodes, branches))
        if gmin > 0.0:
            st.add_diagonal(layout.n_nodes, gmin)
        self._base_rows = np.asarray(st.rows, dtype=np.int32)
        self._base_cols = np.asarray(st.cols, dtype=np.int32)
        self._base_vals = np.asarray(st.vals, dtype=float)
        self._base_rhs = st.rhs
        self._fill_cache = None

    def solve_at(self, x: np.ndarray) -> np.ndarray:
        layout = self._layout
        st = TripletStamper(layout.size)
        for dev, nodes, branches in self._nonlinear:
            dev.stamp_dc(st, x, nodes, branches)
        nl_rows = np.asarray(st.rows, dtype=np.int32)
        nl_cols = np.asarray(st.cols, dtype=np.int32)
        cache = self._fill_cache
        if (cache is not None and np.array_equal(nl_rows, cache[0])
                and np.array_equal(nl_cols, cache[1])):
            # Newton iterations almost always repeat the previous
            # stamp sequence; reuse the concatenated index arrays and
            # only refresh the nonlinear tail of the value buffer.
            rows, cols, vals = cache[2], cache[3], cache[4]
            vals[self._base_vals.size:] = st.vals
        else:
            rows = np.concatenate([self._base_rows, nl_rows])
            cols = np.concatenate([self._base_cols, nl_cols])
            vals = np.concatenate([self._base_vals,
                                   np.asarray(st.vals, dtype=float)])
            self._fill_cache = (nl_rows, nl_cols, rows, cols, vals)
        pattern = get_pattern(layout, "dc", rows, cols)
        lu = pattern.factor(
            pattern.fill(vals), f"circuit {self._circuit.title!r} "
                                f"(floating node or source loop?)")
        return lu.solve(self._base_rhs + st.rhs)


# -- AC engines ---------------------------------------------------------------
class DenseAcEngine:
    """Dense ``(G + j*omega*B) x = rhs`` engine — the pre-backend
    :class:`~repro.circuit.ac.AcSystem` internals, verbatim (broadcast
    batch solves included), plus the explicit real-valued ``omega = 0``
    path shared by both backends."""

    def __init__(self, circuit: Circuit, layout: MnaLayout, ops):
        self._circuit = circuit
        self._layout = layout
        st_g = Stamper(layout.size, dtype=complex)
        st_b = Stamper(layout.size, dtype=complex)
        for dev, nodes, branches in zip(circuit.devices,
                                        layout.device_nodes,
                                        layout.device_branches):
            dev.stamp_ac_parts(st_g, st_b, nodes, branches,
                               ops.get(dev.name))
        diag = np.arange(layout.n_nodes)
        st_g.matrix[diag, diag] += 1e-12
        self._g = st_g.matrix
        self._b = st_b.matrix
        self.rhs = st_g.rhs + st_b.rhs

    @classmethod
    def assembled(cls, circuit: Circuit, layout: MnaLayout, g: np.ndarray,
                  b: np.ndarray, rhs: np.ndarray) -> "DenseAcEngine":
        """An engine over already-assembled ``G``, ``B`` and ``rhs``."""
        engine = cls.__new__(cls)
        engine._circuit = circuit
        engine._layout = layout
        engine._g = g
        engine._b = b
        engine.rhs = rhs
        return engine

    def with_rhs(self, rhs: np.ndarray) -> "DenseAcEngine":
        return DenseAcEngine.assembled(self._circuit, self._layout, self._g,
                                       self._b, rhs)

    def same_matrix(self, other) -> bool:
        return (isinstance(other, DenseAcEngine)
                and (other._g is self._g
                     or np.array_equal(other._g, self._g))
                and (other._b is self._b
                     or np.array_equal(other._b, self._b)))

    def dense_g(self) -> np.ndarray:
        return self._g

    def dense_b(self) -> np.ndarray:
        return self._b

    def solve_rhs(self, omega: float, rhs: np.ndarray,
                  context: str) -> np.ndarray:
        """Solve at ``omega`` for ``rhs`` — one vector, or one column
        per right-hand side on a single factorization."""
        # At omega = 0 the B stack drops out *exactly*: solve the
        # real-valued G system instead of a complex system whose
        # imaginary part is structurally zero.  G's entries are real by
        # construction (only source rhs values are complex), so this is
        # the same linear system without the degenerate imaginary half.
        if omega == 0.0:
            a = self._g.real
        else:
            a = self._g + 1j * omega * self._b
        try:
            return np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"singular AC matrix {context} in circuit "
                f"{self._circuit.title!r}: {exc}") from exc

    def solve(self, omega: float) -> np.ndarray:
        return self.solve_rhs(omega, self.rhs,
                              f"at f={omega / (2.0 * math.pi):g} Hz")

    def solve_many(self, omegas: np.ndarray) -> np.ndarray:
        if np.any(omegas == 0.0):
            # Mixed grids containing DC fall back to per-frequency
            # solves so omega = 0 gets its real-valued treatment.
            return np.stack([self.solve(float(w)) for w in omegas])
        a = self._g[None, :, :] \
            + 1j * omegas[:, None, None] * self._b[None, :, :]
        try:
            return np.linalg.solve(a, self.rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"singular AC matrix in {len(omegas)}-frequency batch in "
                f"circuit {self._circuit.title!r}: {exc}") from exc


class SparseAcEngine:
    """Sparse AC engine: one *union* pattern over the G and B triplets
    (cached on the layout), pre-merged full-length value arrays, so a
    frequency point is a vectorized ``g + j*omega*b`` combine plus one
    ``splu`` — and every multi-rhs solve at a fixed frequency is pure
    triangular back-substitution on the last factorization."""

    def __init__(self, circuit: Circuit, layout: MnaLayout, ops):
        self._circuit = circuit
        self._layout = layout
        st_g = TripletStamper(layout.size, dtype=complex)
        st_b = TripletStamper(layout.size, dtype=complex)
        for dev, nodes, branches in zip(circuit.devices,
                                        layout.device_nodes,
                                        layout.device_branches):
            dev.stamp_ac_parts(st_g, st_b, nodes, branches,
                               ops.get(dev.name))
        st_g.add_diagonal(layout.n_nodes, 1e-12)
        n_g = len(st_g.rows)
        rows = np.asarray(st_g.rows + st_b.rows, dtype=np.int32)
        cols = np.asarray(st_g.cols + st_b.cols, dtype=np.int32)
        self._pattern = get_pattern(layout, "ac", rows, cols)
        # Scatter G and B separately onto the shared union pattern once;
        # per-frequency work is then a single vectorized combine.
        vals = np.zeros(rows.size, dtype=complex)
        vals[:n_g] = st_g.vals
        self._g_full = self._pattern.fill(vals)
        vals[:] = 0.0
        vals[n_g:] = st_b.vals
        self._b_full = self._pattern.fill(vals)
        self.rhs = st_g.rhs + st_b.rhs
        # Memoized (omega, lu) of the last factorization.  A mutable
        # holder rather than plain attributes so re-driven clones — which
        # share (pattern, g, b) and hence factorizations — reuse it.
        self._lu_memo: List = [None, None]

    @classmethod
    def assembled(cls, circuit: Circuit, layout: MnaLayout,
                  pattern: SparsePattern, g_full: np.ndarray,
                  b_full: np.ndarray, rhs: np.ndarray,
                  lu_memo: Optional[List] = None) -> "SparseAcEngine":
        """An engine over already-filled ``G``/``B`` data on ``pattern``
        (sharing ``lu_memo`` with the engine it was re-driven from)."""
        engine = cls.__new__(cls)
        engine._circuit = circuit
        engine._layout = layout
        engine._pattern = pattern
        engine._g_full = g_full
        engine._b_full = b_full
        engine.rhs = rhs
        engine._lu_memo = [None, None] if lu_memo is None else lu_memo
        return engine

    def with_rhs(self, rhs: np.ndarray) -> "SparseAcEngine":
        return SparseAcEngine.assembled(
            self._circuit, self._layout, self._pattern, self._g_full,
            self._b_full, rhs, self._lu_memo)

    def same_matrix(self, other) -> bool:
        return (isinstance(other, SparseAcEngine)
                and other._pattern is self._pattern
                and (other._g_full is self._g_full
                     or np.array_equal(other._g_full, self._g_full))
                and (other._b_full is self._b_full
                     or np.array_equal(other._b_full, self._b_full)))

    def dense_g(self) -> np.ndarray:
        """Densified G — for cold-path consumers (noise adjoint)."""
        return self._pattern.matrix(self._g_full).toarray()

    def dense_b(self) -> np.ndarray:
        return self._pattern.matrix(self._b_full).toarray()

    def _factor(self, omega: float, context: str):
        if self._lu_memo[1] is not None and self._lu_memo[0] == omega:
            return self._lu_memo[1]
        if omega == 0.0:
            # SuperLU needs C-contiguous data; ``.real`` is a strided view.
            data = np.ascontiguousarray(self._g_full.real)
        else:
            data = self._g_full + 1j * omega * self._b_full
        lu = self._pattern.factor(data,
                                  f"AC system {context} in circuit "
                                  f"{self._circuit.title!r}")
        self._lu_memo[0] = omega
        self._lu_memo[1] = lu
        return lu

    def solve_rhs(self, omega: float, rhs: np.ndarray,
                  context: str) -> np.ndarray:
        """Solve at ``omega`` for ``rhs`` (a vector or columns) on the
        memoized factorization."""
        lu = self._factor(omega, context)
        if omega == 0.0:
            # Real factorization, complex rhs: two triangular solves.
            return (lu.solve(np.ascontiguousarray(rhs.real))
                    + 1j * lu.solve(np.ascontiguousarray(rhs.imag)))
        return lu.solve(rhs)

    def solve(self, omega: float) -> np.ndarray:
        return self.solve_rhs(omega, self.rhs,
                              f"at f={omega / (2.0 * math.pi):g} Hz")

    def solve_many(self, omegas: np.ndarray) -> np.ndarray:
        out = np.empty((len(omegas), self._layout.size), dtype=complex)
        for i, omega in enumerate(omegas):
            out[i] = self.solve_rhs(float(omega), self.rhs,
                                    f"in {len(omegas)}-frequency batch")
        return out


# -- backends -----------------------------------------------------------------
class DenseBackend:
    """Dense LAPACK backend (bit-identical to the pre-backend code)."""

    name = "dense"

    def dc_system(self, circuit: Circuit, layout: MnaLayout,
                  gmin: float) -> DenseDcSystem:
        return DenseDcSystem(circuit, layout, gmin)

    def ac_engine(self, circuit: Circuit, layout: MnaLayout,
                  ops) -> DenseAcEngine:
        return DenseAcEngine(circuit, layout, ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class SparseBackend(DenseBackend):
    """CSC + ``splu`` backend with symbolic-pattern reuse."""

    name = "sparse"

    def dc_system(self, circuit: Circuit, layout: MnaLayout,
                  gmin: float) -> SparseDcSystem:
        return SparseDcSystem(circuit, layout, gmin)

    def ac_engine(self, circuit: Circuit, layout: MnaLayout,
                  ops) -> SparseAcEngine:
        return SparseAcEngine(circuit, layout, ops)


#: Module singletons — backends are stateless (all per-topology state
#: lives on the :class:`MnaLayout` pattern cache), so one instance each.
DENSE = DenseBackend()
SPARSE = SparseBackend()

_BY_NAME = {"dense": DENSE, "sparse": SPARSE}


def resolve_backend(spec, n_nodes: int) -> DenseBackend:
    """Resolve a backend spec — ``None``/``"auto"``, a backend name, or
    an instance — against the circuit's node count.

    ``"auto"`` (and ``None``) picks sparse at or above
    :data:`AUTO_SPARSE_MIN_NODES` nodes, dense below; every template
    that predates the backend layer sits far below the threshold and so
    keeps its exact dense numerics.
    """
    if spec is None or spec == "auto":
        return SPARSE if n_nodes >= AUTO_SPARSE_MIN_NODES else DENSE
    if isinstance(spec, str):
        backend = _BY_NAME.get(spec)
        if backend is None:
            raise ReproError(
                f"unknown linear-solver backend {spec!r}; expected one of "
                f"'auto', 'dense', 'sparse'")
        return backend
    return spec
