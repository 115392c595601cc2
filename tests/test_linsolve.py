"""Tests of the pluggable linear-solver backend layer.

The load-bearing property is backend *equivalence*: the sparse
factorization-reusing backend must produce the same DC operating points
and AC transfers as the dense LAPACK path on any well-posed circuit —
including nonlinear (MOSFET) circuits whose Newton iterations re-stamp
the matrix, mixed AC grids containing ``freq = 0``, and multi-rhs
shared-matrix solves.  Failure modes must match too: a singular MNA
system raises the same :class:`SingularMatrixError` from both backends.
"""

import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Circuit, solve_dc
from repro.circuit.ac import (AcSystem, shared_matrix_transfers,
                              transfer_at)
import repro.circuit.linsolve as linsolve
from repro.circuit.dc import GMIN_FINAL, WarmStartCache
from repro.circuit.linsolve import (AUTO_SPARSE_MIN_NODES, DENSE, SPARSE,
                                    DenseDcSystem, PatternFactorizer,
                                    SparseDcSystem, SparsePattern,
                                    get_pattern, resolve_backend)
from repro.errors import AnalysisError, ReproError, SingularMatrixError
from repro.pdk.generic035 import NMOS

resistances = st.floats(1e3, 1e5)
widths = st.floats(2e-6, 50e-6)
biases = st.floats(0.8, 1.6)


def _cs_chain(stages, vdd=3.3, vg=1.1):
    """A chain of common-source NMOS stages with resistive loads and
    node capacitors — nonlinear, multi-node, always well-posed."""
    c = Circuit("cs-chain")
    c.vsource("VDD", "vdd", "0", dc=vdd)
    c.vsource("VG", "g0", "0", dc=vg, ac=1.0)
    gate = "g0"
    for k, (rd, w) in enumerate(stages, start=1):
        drain = f"d{k}"
        c.resistor(f"RD{k}", "vdd", drain, rd)
        c.mosfet(f"M{k}", drain, gate, "0", "0", NMOS, w=w, l=1e-6)
        c.capacitor(f"C{k}", drain, "0", 1e-12)
        gate = drain
    return c, gate


class TestDcEquivalence:
    @given(stages=st.lists(st.tuples(resistances, widths),
                           min_size=1, max_size=4),
           vg=biases)
    @settings(max_examples=30, deadline=None)
    def test_sparse_matches_dense_on_random_nonlinear_circuits(
            self, stages, vg):
        circuit, _ = _cs_chain(stages, vg=vg)
        dense = solve_dc(circuit, backend="dense")
        circuit2, _ = _cs_chain(stages, vg=vg)
        sparse = solve_dc(circuit2, backend="sparse")
        assert np.allclose(sparse.x, dense.x, rtol=1e-6, atol=1e-7)

    @given(stages=st.lists(st.tuples(resistances, widths),
                           min_size=1, max_size=3))
    @settings(max_examples=15, deadline=None)
    def test_operating_points_match(self, stages):
        circuit, _ = _cs_chain(stages)
        dense = solve_dc(circuit, backend="dense")
        circuit2, _ = _cs_chain(stages)
        sparse = solve_dc(circuit2, backend="sparse")
        for name in (f"M{k}" for k in range(1, len(stages) + 1)):
            assert sparse.op(name)["ids"] == pytest.approx(
                dense.op(name)["ids"], rel=1e-6, abs=1e-12)

    def test_pmos_region_swap_rebuilds_pattern(self):
        """A MOSFET swaps its drain/source stamp indices with the sign
        of vds, so successive solves of one topology can legitimately
        present different triplet fingerprints — the cached pattern must
        rebuild, not corrupt."""
        c = Circuit("swap")
        c.vsource("VDD", "vdd", "0", dc=3.3)
        c.vsource("VG", "g", "0", dc=1.5)
        c.resistor("RS", "vdd", "s", 1e3)
        c.resistor("RD", "d", "0", 1e3)
        c.mosfet("M1", "d", "g", "s", "0", NMOS, w=10e-6, l=1e-6)
        dense = solve_dc(c, backend="dense")
        c2 = Circuit("swap")
        c2.vsource("VDD", "vdd", "0", dc=3.3)
        c2.vsource("VG", "g", "0", dc=1.5)
        c2.resistor("RS", "vdd", "s", 1e3)
        c2.resistor("RD", "d", "0", 1e3)
        c2.mosfet("M1", "d", "g", "s", "0", NMOS, w=10e-6, l=1e-6)
        sparse = solve_dc(c2, backend="sparse")
        assert np.allclose(sparse.x, dense.x, rtol=1e-6, atol=1e-7)


class TestSingularSystems:
    def _floating(self):
        """A current source into a node with no DC path to ground."""
        c = Circuit("floating")
        c.isource("I1", "0", "a", dc=1e-6)
        c.capacitor("C1", "a", "b", 1e-12)
        c.resistor("R1", "b", "0", 1e3)
        return c

    def test_both_backends_raise_singular_matrix_error(self):
        circuit = self._floating()
        layout = circuit.layout()
        x = np.zeros(layout.size)
        with pytest.raises(SingularMatrixError):
            DenseDcSystem(circuit, layout, gmin=0.0).solve_at(x)
        with pytest.raises(SingularMatrixError):
            SparseDcSystem(circuit, layout, gmin=0.0).solve_at(x)

    def test_singular_matrix_error_is_an_analysis_error(self):
        """Callers catching the historic dense failure mode must also
        catch the sparse one — same class, same hierarchy."""
        assert issubclass(SingularMatrixError, AnalysisError)

    def test_ac_singularity_matches(self):
        """A voltage-source loop is singular for both AC engines."""
        c = Circuit("loop")
        c.vsource("V1", "a", "0", dc=1.0, ac=1.0)
        c.vsource("V2", "a", "0", dc=1.0)
        c.resistor("R1", "a", "0", 1e3)
        layout = c.layout()
        for backend in (DENSE, SPARSE):
            engine = backend.ac_engine(c, layout, {})
            with pytest.raises(SingularMatrixError):
                engine.solve(2.0 * np.pi * 1e3)


class TestAcEquivalence:
    def _system(self, backend):
        circuit, out = _cs_chain([(20e3, 10e-6), (30e3, 20e-6)])
        op = solve_dc(circuit, backend="dense")
        return AcSystem(circuit, op, backend=backend), out

    @given(freq=st.floats(1.0, 1e9))
    @settings(max_examples=25, deadline=None)
    def test_transfer_matches_across_backends(self, freq):
        dense, out = self._system("dense")
        sparse, _ = self._system("sparse")
        hd = dense.transfer(out, freq)
        hs = sparse.transfer(out, freq)
        assert hs == pytest.approx(hd, rel=1e-8, abs=1e-15)

    def test_freq_zero_equals_dc_small_signal_gain(self):
        """Regression for the freq = 0 path: the AC gain at DC must be
        consistent with a finite-difference DC gain — and identical
        between backends (both solve the real-valued G system)."""
        for backend in ("dense", "sparse"):
            circuit, out = _cs_chain([(20e3, 10e-6)])
            op = solve_dc(circuit, backend=backend)
            h0 = transfer_at(circuit, op, out, 0.0, backend=backend)
            assert h0.imag == 0.0
            # Finite-difference DC gain around the bias point.
            delta = 1e-5
            lo, _ = _cs_chain([(20e3, 10e-6)], vg=1.1 - delta)
            hi, _ = _cs_chain([(20e3, 10e-6)], vg=1.1 + delta)
            g_fd = (solve_dc(hi, backend=backend).voltage(out)
                    - solve_dc(lo, backend=backend).voltage(out)) \
                / (2 * delta)
            assert h0.real == pytest.approx(g_fd, rel=1e-3)

    def test_solve_many_with_mixed_dc_grid(self):
        """A sweep grid containing freq = 0 must agree point-by-point
        with individual solves, on both backends."""
        freqs = [0.0, 1e3, 1e6]
        for backend in ("dense", "sparse"):
            system, out = self._system(backend)
            batch = system.transfer_many(out, freqs)
            single = np.array([system.transfer(out, f) for f in freqs])
            assert np.allclose(batch, single, rtol=1e-12, atol=1e-18)

    def test_shared_matrix_transfers_multi_rhs(self):
        """Re-driven systems share (G, B): the multi-rhs fast path must
        match per-system solves on both backends."""
        for backend in ("dense", "sparse"):
            system, out = self._system(backend)
            redriven = system.with_drives()
            values = shared_matrix_transfers([system, redriven], out, 1e4)
            expected = [system.transfer(out, 1e4),
                        redriven.transfer(out, 1e4)]
            assert values == pytest.approx(expected, rel=1e-12)

    def test_sparse_backend_equals_dense_on_folded_cascode(self):
        """Backend equivalence on a real template netlist (the ISSUE's
        acceptance tolerance: agreement on all existing templates)."""
        from repro.circuits import FoldedCascodeOpamp
        t = FoldedCascodeOpamp()
        space = t.statistical_space
        d = t.initial_design()
        theta = t.operating_range.nominal()
        pv = space.to_physical(d, space.nominal())
        results = {}
        for backend in ("dense", "sparse"):
            circuit = t.build(d, pv, theta)
            op = solve_dc(circuit, backend=backend)
            system = AcSystem(circuit, op, backend=backend)
            results[backend] = (op.x, system.transfer("out", 1e5))
        x_d, h_d = results["dense"]
        x_s, h_s = results["sparse"]
        assert np.allclose(x_s, x_d, rtol=1e-6, atol=1e-9)
        assert h_s == pytest.approx(h_d, rel=1e-6)


class TestBackendSelection:
    def test_auto_threshold(self):
        assert resolve_backend(None, AUTO_SPARSE_MIN_NODES - 1) is DENSE
        assert resolve_backend(None, AUTO_SPARSE_MIN_NODES) is SPARSE
        assert resolve_backend("auto", 10) is DENSE
        assert resolve_backend("auto", 500) is SPARSE

    def test_explicit_names_override_size(self):
        assert resolve_backend("dense", 10_000) is DENSE
        assert resolve_backend("sparse", 2) is SPARSE

    def test_instance_passthrough(self):
        assert resolve_backend(SPARSE, 2) is SPARSE

    def test_unknown_name_raises(self):
        with pytest.raises(ReproError, match="unknown linear-solver"):
            resolve_backend("umfpack", 10)

    def test_small_templates_stay_dense_under_auto(self):
        """The bit-identity guarantee for pre-existing templates hinges
        on every one of them sitting below the auto threshold."""
        from repro.circuits import (FiveTransistorOta, FoldedCascodeOpamp,
                                    MillerOpamp)
        for factory in (MillerOpamp, FoldedCascodeOpamp,
                        FiveTransistorOta):
            t = factory()
            space = t.statistical_space
            d = t.initial_design()
            pv = space.to_physical(d, space.nominal())
            circuit = t.build(d, pv, t.operating_range.nominal())
            assert circuit.layout().size < AUTO_SPARSE_MIN_NODES


class TestSparsePattern:
    def test_fingerprint_cache_and_rebuild(self):
        c = Circuit("rc")
        c.vsource("V1", "a", "0", dc=1.0)
        c.resistor("R1", "a", "b", 1e3)
        c.resistor("R2", "b", "0", 1e3)
        layout = c.layout()
        rows = np.array([0, 1, 1, 0], dtype=np.int32)
        cols = np.array([0, 1, 0, 1], dtype=np.int32)
        p1 = get_pattern(layout, "test", rows, cols)
        assert get_pattern(layout, "test", rows, cols) is p1
        # A different stamp sequence (region swap) rebuilds the pattern.
        p2 = get_pattern(
            layout, "test",
            np.array([1, 1, 0, 0], dtype=np.int32), cols)
        assert p2 is not p1
        # Distinct analysis kinds get distinct cache slots.
        assert get_pattern(layout, "other", rows, cols) is not p2

    def test_fill_accumulates_duplicate_triplets(self):
        rows = np.array([0, 0, 1], dtype=np.int32)
        cols = np.array([0, 0, 1], dtype=np.int32)
        pattern = SparsePattern(rows, cols, 2)
        dense = pattern.matrix(
            pattern.fill(np.array([1.0, 2.0, 5.0]))).toarray()
        assert dense == pytest.approx(np.array([[3.0, 0.0], [0.0, 5.0]]))


class TestPatternFactorizerFallbacks:
    """Both fallbacks of the direct private ``gstrf`` path factor through
    ``_splu_factor``: solves stay bitwise equal to it, and a singular
    matrix still raises :class:`SingularMatrixError`.  Each check factors
    twice: where the entry point is available the first factorization
    learns the structure's column ordering and the second reuses it."""

    ROWS = np.array([0, 1, 2, 0, 1, 2, 0, 2], dtype=np.int32)
    COLS = np.array([0, 1, 2, 1, 0, 1, 2, 0], dtype=np.int32)
    VALUES = np.array([4.0, 5.0, 6.0, 1.0, 2.0, 0.5, 1.5, 0.25])
    RHS = np.array([1.0, -2.0, 0.5])

    @pytest.fixture(autouse=True)
    def _no_learned_orderings(self, monkeypatch):
        monkeypatch.setattr(linsolve, "_ORDERINGS", {})

    def _check(self, pattern, factorizer):
        data = pattern.fill(self.VALUES)
        expected = linsolve._splu_factor(pattern.matrix(data),
                                         "test").solve(self.RHS)
        for _ in range(2):
            got = factorizer.factor(data, "test").solve(self.RHS)
            assert np.array_equal(got, expected)
        with pytest.raises(SingularMatrixError):
            factorizer.factor(pattern.fill(np.zeros_like(self.VALUES)),
                              "test")

    def test_learned_ordering(self):
        if linsolve._superlu_mod is None:
            pytest.skip("scipy exposes no private gstrf entry point")
        pattern = SparsePattern(self.ROWS, self.COLS, 3)
        factorizer = PatternFactorizer(pattern)
        self._check(pattern, factorizer)
        _, _, perm_c = factorizer._ordering
        # A copy: SuperLU's perm_c is a view that pins the factorization.
        assert perm_c.flags.owndata
        # A second pattern of the same structure finds it learned.
        other = PatternFactorizer(SparsePattern(self.ROWS, self.COLS, 3))
        self._check(pattern, other)
        assert other._ordering is factorizer._ordering
        assert list(linsolve._ORDERINGS.values()) == [factorizer._ordering]

    def test_unordered_permutation_keeps_the_mmd_path(self, monkeypatch):
        """A learned ``perm_c`` that is not in elimination-tree postorder
        would let SuperLU's natural ordering move columns again: the
        factorizer notices and keeps the structure on MMD."""
        if linsolve._superlu_mod is None:
            pytest.skip("scipy exposes no private gstrf entry point")
        # Column etree 0 -> 2 -> 3 <- 1: the identity is not postordered.
        pattern = SparsePattern(np.array([0, 1, 2, 3, 0, 1, 2], np.int32),
                                np.array([0, 1, 2, 3, 2, 3, 3], np.int32), 4)
        data = pattern.fill(np.array([4.0, 5.0, 6.0, 7.0, 1.0, 2.0, 0.5]))
        rhs = np.array([1.0, 2.0, 3.0, 4.0])
        expected = linsolve._splu_factor(pattern.matrix(data),
                                         "t").solve(rhs)
        permute = PatternFactorizer._permute
        monkeypatch.setattr(PatternFactorizer, "_permute",
                            lambda self, perm_c: permute(self, np.arange(4)))
        factorizer = PatternFactorizer(pattern)
        for _ in range(2):
            assert np.array_equal(factorizer.factor(data, "t").solve(rhs),
                                  expected)
        assert factorizer._ordering is False
        assert list(linsolve._ORDERINGS.values()) == [False]

    def test_learned_orderings_are_bounded(self, monkeypatch):
        if linsolve._superlu_mod is None:
            pytest.skip("scipy exposes no private gstrf entry point")
        monkeypatch.setattr(linsolve, "_ORDERINGS_MAX", 2)
        # Three structures: the 3x3 pattern with 0, 1 or 2 of its last
        # off-diagonal triplets.
        for n in (6, 7, 8):
            pattern = SparsePattern(self.ROWS[:n], self.COLS[:n], 3)
            pattern.factor(pattern.fill(self.VALUES[:n]), "t")
        assert len(linsolve._ORDERINGS) == 2
        first = SparsePattern(self.ROWS[:6], self.COLS[:6], 3)
        key = (first.indptr.astype(np.intc).tobytes(),
               first.indices.astype(np.intc).tobytes())
        assert key not in linsolve._ORDERINGS  # the oldest went first

    def test_missing_private_entry_point(self, monkeypatch):
        monkeypatch.setattr(linsolve, "_superlu_mod", None)
        pattern = SparsePattern(self.ROWS, self.COLS, 3)
        factorizer = PatternFactorizer(pattern)
        assert factorizer._args is None
        self._check(pattern, factorizer)

    def test_import_fallback_in_a_fresh_interpreter(self, tmp_path):
        """Hide scipy's private ``_superlu`` module after scipy has loaded
        it, then import the package in a fresh interpreter: the import
        falls back (``_superlu_mod`` is None), every factorization goes
        through ``_splu_factor``, and the solutions on the array's DC and
        AC patterns equal this process's private-entry-point ones
        bitwise."""
        if linsolve._superlu_mod is None:
            pytest.skip("scipy exposes no private gstrf entry point")
        dc, dc_data, dc_rhs, ac = _array_dc_stamp(3, GMIN_FINAL)
        omega = 2.0 * np.pi * 1e6
        cases = {"dc": (dc, dc_data, dc_rhs),
                 "ac": (ac._pattern, ac._g_full + 1j * omega * ac._b_full,
                        ac.rhs)}
        expected = {}
        for name, (pattern, data, rhs) in cases.items():
            np.savez(tmp_path / f"{name}.npz", rows=pattern.rows,
                     cols=pattern.cols, size=pattern.size, data=data,
                     rhs=rhs)
            factorizer = PatternFactorizer(pattern)
            assert factorizer._args is not None
            expected[name] = factorizer.factor(data, "t").solve(rhs)
        script = textwrap.dedent("""
            import sys
            import numpy as np
            import scipy.sparse.linalg  # loads the private _superlu
            import scipy.sparse.linalg._dsolve as dsolve
            del dsolve._superlu
            sys.modules["scipy.sparse.linalg._dsolve._superlu"] = None
            import repro.circuit.linsolve as linsolve
            assert linsolve._superlu_mod is None
            calls = []
            splu_factor = linsolve._splu_factor

            def counting(matrix, context):
                calls.append(context)
                return splu_factor(matrix, context)

            linsolve._splu_factor = counting
            for name in ("dc", "ac"):
                case = np.load(f"{sys.argv[1]}/{name}.npz")
                pattern = linsolve.SparsePattern(
                    case["rows"], case["cols"], int(case["size"]))
                factorizer = linsolve.PatternFactorizer(pattern)
                assert factorizer._args is None
                x = factorizer.factor(case["data"], name).solve(case["rhs"])
                np.save(f"{sys.argv[1]}/{name}_x.npy", x)
            assert calls == ["dc", "ac"], calls
            """)
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        for name in cases:
            got = np.load(tmp_path / f"{name}_x.npy")
            assert np.array_equal(got, expected[name]), name

    def test_changed_gstrf_signature(self, monkeypatch):
        if linsolve._superlu_mod is None:
            pytest.skip("scipy exposes no private gstrf entry point")
        pattern = SparsePattern(self.ROWS, self.COLS, 3)
        factorizer = PatternFactorizer(pattern)
        assert factorizer._args is not None
        # Learn the column ordering first: the fallback must also work
        # from the learned-ordering path.
        factorizer.factor(pattern.fill(self.VALUES), "test")
        assert factorizer._ordering

        def moved(*args, **kwargs):
            raise TypeError("gstrf() got an unexpected keyword argument")

        # A stand-in module: scipy's own splu keeps the real gstrf.
        monkeypatch.setattr(linsolve, "_superlu_mod",
                            types.SimpleNamespace(gstrf=moved))
        self._check(pattern, factorizer)
        assert factorizer._args is None  # later calls skip gstrf


def _array_dc_stamp(seed, gmin):
    """The sparse array's DC pattern, data and rhs at its operating
    point, stamped in :class:`SparseDcSystem`'s order (linear stamps,
    the ``gmin`` diagonal, nonlinear stamps), and its AC engine."""
    from repro.circuits.two_stage_array import TwoStageArrayOpamp
    template = TwoStageArrayOpamp()
    d = template.initial_design()
    theta = template.operating_range.nominal()
    space = template.statistical_space
    s_hat = np.random.default_rng(seed).standard_normal(space.dim)
    circuit = template.build(d, space.to_physical(d, s_hat), theta)
    op = solve_dc(circuit, temp_c=theta["temp"], backend="sparse")
    layout = circuit.layout()
    st_dc = linsolve.TripletStamper(layout.size)
    devices = list(zip(circuit.devices, layout.device_nodes,
                       layout.device_branches))
    for dev, nodes, branches in devices:
        if dev.linear:
            dev.stamp_dc(st_dc, op.x, nodes, branches)
    if gmin:
        st_dc.add_diagonal(layout.n_nodes, gmin)
    for dev, nodes, branches in devices:
        if not dev.linear:
            dev.stamp_dc(st_dc, op.x, nodes, branches)
    pattern = SparsePattern(np.asarray(st_dc.rows, dtype=np.int32),
                            np.asarray(st_dc.cols, dtype=np.int32),
                            layout.size)
    data = pattern.fill(np.asarray(st_dc.vals, dtype=float))
    ac = linsolve.SparseAcEngine(circuit, layout, op.operating_points())
    return pattern, data, st_dc.rhs, ac


class TestLearnedOrdering:
    """Factorizations on the learned column ordering, on the sparse
    array's DC and AC patterns."""

    @given(seed=st.integers(0, 2 ** 20), log_f=st.floats(-1.0, 10.0))
    @settings(max_examples=5, deadline=None)
    def test_two_stage_array_patterns(self, seed, log_f):
        """With gmin (DC) and the 1e-12 stabilizer (AC) on the node
        diagonals, as the engines stamp them, a structure's first
        factorization (which learns the ordering) and a later one both
        solve bitwise like ``_splu_factor``."""
        if linsolve._superlu_mod is None:
            pytest.skip("scipy exposes no private gstrf entry point")
        dc, dc_data, dc_rhs, ac = _array_dc_stamp(seed, GMIN_FINAL)
        omega = 2.0 * np.pi * 10.0 ** log_f
        cases = [(dc, dc_data, dc_rhs, 1.0),
                 (ac._pattern, ac._g_full + 1j * omega * ac._b_full,
                  ac.rhs, 0.5)]
        with mock.patch.dict(linsolve._ORDERINGS, clear=True):
            for pattern, data, rhs, scale in cases:
                factorizer = PatternFactorizer(pattern)
                for values in (data * scale, data):
                    lu = factorizer.factor(values, "t")
                    assert isinstance(lu, linsolve._PermutedLU)
                    expected = linsolve._splu_factor(pattern.matrix(values),
                                                     "t")
                    assert np.array_equal(lu.solve(rhs),
                                          expected.solve(rhs))

    def test_a_pivot_tie_breaks_the_same_way_every_time(self, monkeypatch):
        """Without gmin the array's DC stamp has exact magnitude ties,
        which the permuted structure breaks differently from
        ``_splu_factor``.  The factorization that learns the ordering, a
        later one and a fresh pattern's (which finds the ordering
        learned) still solve bitwise alike: the result does not depend
        on what was factored before."""
        if linsolve._superlu_mod is None:
            pytest.skip("scipy exposes no private gstrf entry point")
        pattern, data, rhs, _ = _array_dc_stamp(0, 0.0)
        monkeypatch.setattr(linsolve, "_ORDERINGS", {})
        factorizer = PatternFactorizer(pattern)
        solves = [factorizer.factor(data, "t").solve(rhs)
                  for _ in range(2)]
        fresh = SparsePattern(pattern.rows, pattern.cols, pattern.size)
        solves.append(fresh.factor(data, "t").solve(rhs))
        assert all(np.array_equal(x, solves[0]) for x in solves[1:])
        # The tie is real: the MMD call picks another pivot.
        mmd = linsolve._splu_factor(pattern.matrix(data), "t")
        assert not np.array_equal(mmd.solve(rhs), solves[0])


class TestWarmStartCacheCounters:
    def test_hit_miss_and_eviction_counters(self):
        cache = WarmStartCache(maxsize=2)
        assert cache.lookup("a") is WarmStartCache._MISSING
        cache.store("a", None)
        cache.lookup("a")
        cache.store("b", None)
        cache.store("c", None)  # evicts "a"
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 1
        assert stats["entries"] == 2

    def test_chain_store_is_separate_and_bounded(self):
        cache = WarmStartCache(maxsize=8, chain_maxsize=2)
        x = np.ones(3)
        assert cache.lookup_chain("p1") is WarmStartCache._MISSING
        cache.store_chain("p1", x)
        got = cache.lookup_chain("p1")
        assert np.array_equal(got, x)
        cache.store_chain("p2", None)
        cache.store_chain("p3", x)  # evicts p1
        assert cache.lookup_chain("p1") is WarmStartCache._MISSING
        assert cache.stats()["evictions"] == 1
        # Chain lookups never touch the hit/miss counters.
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 0

    def test_absorb_and_counter_delta(self):
        cache = WarmStartCache()
        cache.store("a", None)
        cache.lookup("a")
        before = cache.stats()
        cache.lookup("a")
        cache.lookup("zz")
        delta = WarmStartCache.counter_delta(cache.stats(), before)
        assert delta == {"hits": 1, "misses": 1, "chain_seeds": 0,
                         "chain_solves": 0, "evictions": 0}
        other = WarmStartCache()
        other.absorb(delta)
        assert other.stats()["hits"] == 1
        assert other.stats()["misses"] == 1


class TestWarmChainSeeding:
    def test_parent_cell_chains_across_fine_cells(self):
        """Two nearby design points in different fine anchor cells share
        one coarser parent cell: the parent is cold-solved once and
        seeds both representatives."""
        from repro.circuits import MillerOpamp
        t = MillerOpamp()
        theta = t.operating_range.nominal()
        d1 = t.initial_design()
        d2 = dict(d1)
        d2["w1"] = d1["w1"] * 1.075  # new fine cell, same parent cell
        assert t._warm_anchor(d1, theta) is not None
        stats1 = t.warm_cache_stats()
        assert stats1["chain_solves"] == 1
        assert t._warm_anchor(d2, theta) is not None
        stats2 = t.warm_cache_stats()
        assert stats2["chain_solves"] == 1  # parent reused, not re-solved
        assert stats2["chain_seeds"] == 2
        assert stats2["chain_entries"] == 1

    def test_chain_seeding_does_not_change_results(self):
        """The fallback guarantee: chaining may only change iteration
        counts, never the anchor solution.  The chain-seeded anchor
        matches a direct cold solve of the fine cell's representative."""
        from repro.circuits import MillerOpamp
        from repro.circuits.base import _warm_rep
        t = MillerOpamp()
        theta = t.operating_range.nominal()
        d = dict(t.initial_design())
        d["w1"] = d["w1"] * 1.075
        x_chained = t._warm_anchor(d, theta)[0]
        assert t.warm_cache_stats()["chain_seeds"] == 1
        d_rep = {name: _warm_rep(d[name]) for name in t.design_names}
        theta_rep = {name: _warm_rep(value)
                     for name, value in theta.items()}
        space = t.statistical_space
        circuit = t.build(d_rep, space.to_physical(d_rep, space.nominal()),
                          theta_rep)
        x_cold = solve_dc(circuit, temp_c=theta_rep["temp"],
                          backend=t.linsolve).x
        assert np.allclose(x_chained, x_cold, rtol=1e-7, atol=1e-9)
