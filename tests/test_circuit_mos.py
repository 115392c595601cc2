"""Unit tests for the level-1 MOS model (repro.circuit.mos)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuit.mos import (DEFAULT_SMOOTHING_V, REGION_NAMES, MosModel,
                               evaluate_nmos, evaluate_nmos_batch,
                               evaluate_nmos_stacked, intrinsic_capacitances,
                               intrinsic_capacitances_batch, _softplus)
from repro.pdk.generic035 import NMOS, PMOS

W, L = 10e-6, 1e-6


def fd_gradient(model, w, l, vgs, vds, vbs, step=1e-7):
    """Central finite differences of the drain current."""
    def ids(vg, vd, vb):
        return evaluate_nmos(model, w, l, vg, vd, vb).ids
    gm = (ids(vgs + step, vds, vbs) - ids(vgs - step, vds, vbs)) / (2 * step)
    gds = (ids(vgs, vds + step, vbs) - ids(vgs, vds - step, vbs)) / (2 * step)
    gmb = (ids(vgs, vds, vbs + step) - ids(vgs, vds, vbs - step)) / (2 * step)
    return gm, gds, gmb


class TestRegions:
    def test_saturation_current_matches_square_law(self):
        ev = evaluate_nmos(NMOS, W, L, 1.0, 2.0, 0.0)
        assert ev.region == "saturation"
        vov = 1.0 - NMOS.vto
        lam = NMOS.lambda_ / (L * 1e6)
        expected = 0.5 * NMOS.kp * (W / L) * vov**2 * (1 + lam * 2.0)
        assert ev.ids == pytest.approx(expected, rel=1e-3)

    def test_triode_current_matches_square_law(self):
        ev = evaluate_nmos(NMOS, W, L, 1.5, 0.2, 0.0)
        assert ev.region == "triode"
        vov = 1.5 - NMOS.vto
        lam = NMOS.lambda_ / (L * 1e6)
        expected = NMOS.kp * (W / L) * (vov - 0.1) * 0.2 * (1 + lam * 0.2)
        assert ev.ids == pytest.approx(expected, rel=1e-3)

    def test_cutoff_current_is_negligible(self):
        ev = evaluate_nmos(NMOS, W, L, 0.2, 2.0, 0.0)
        assert ev.region == "cutoff"
        assert ev.ids < 1e-9

    def test_vdsat_equals_smoothed_overdrive(self):
        ev = evaluate_nmos(NMOS, W, L, 1.2, 2.0, 0.0)
        assert ev.vdsat == pytest.approx(1.2 - NMOS.vto, abs=2e-3)

    def test_region_boundary_continuity(self):
        """Current is continuous across the triode/saturation boundary."""
        vov = 1.0 - NMOS.vto
        below = evaluate_nmos(NMOS, W, L, 1.0, vov - 1e-9, 0.0).ids
        above = evaluate_nmos(NMOS, W, L, 1.0, vov + 1e-9, 0.0).ids
        assert below == pytest.approx(above, rel=1e-6)


class TestDerivatives:
    @pytest.mark.parametrize("vgs,vds,vbs", [
        (1.0, 2.0, 0.0),    # saturation
        (1.5, 0.2, 0.0),    # triode
        (0.45, 1.0, 0.0),   # near threshold
        (1.0, 2.0, -0.5),   # body bias
        (0.2, 2.0, 0.0),    # cutoff
    ])
    def test_analytic_matches_finite_difference(self, vgs, vds, vbs):
        ev = evaluate_nmos(NMOS, W, L, vgs, vds, vbs)
        gm, gds, gmb = fd_gradient(NMOS, W, L, vgs, vds, vbs)
        scale = max(abs(ev.gm), 1e-9)
        assert ev.gm == pytest.approx(gm, rel=1e-3, abs=1e-3 * scale)
        assert ev.gds == pytest.approx(gds, rel=1e-3, abs=1e-3 * scale)
        assert ev.gmb == pytest.approx(gmb, rel=1e-2, abs=1e-3 * scale)

    @given(vgs=st.floats(-0.5, 2.5), vds=st.floats(0.0, 3.3))
    @settings(max_examples=60, deadline=None)
    def test_gm_never_negative(self, vgs, vds):
        ev = evaluate_nmos(NMOS, W, L, vgs, vds, 0.0)
        assert ev.gm >= 0.0
        assert ev.ids >= 0.0


class TestBodyEffect:
    def test_reverse_body_bias_raises_threshold(self):
        base = evaluate_nmos(NMOS, W, L, 1.0, 2.0, 0.0)
        biased = evaluate_nmos(NMOS, W, L, 1.0, 2.0, -1.0)
        assert biased.vth > base.vth
        assert biased.ids < base.ids

    def test_forward_bias_clamp_is_finite(self):
        ev = evaluate_nmos(NMOS, W, L, 1.0, 2.0, +2.0)
        assert math.isfinite(ev.ids)
        assert math.isfinite(ev.gmb)


class TestTemperature:
    def test_threshold_drops_with_temperature_nmos(self):
        hot = NMOS.at_temperature(125.0)
        assert hot.vto < NMOS.vto

    def test_threshold_magnitude_drops_with_temperature_pmos(self):
        hot = PMOS.at_temperature(125.0)
        assert abs(hot.vto) < abs(PMOS.vto)

    def test_mobility_drops_with_temperature(self):
        hot = NMOS.at_temperature(125.0)
        assert hot.kp < NMOS.kp

    def test_nominal_temperature_is_identity(self):
        assert NMOS.at_temperature(27.0) is NMOS


class TestPerturbations:
    def test_delta_vto_weakens_nmos(self):
        shifted = NMOS.perturbed(delta_vto=0.05)
        base = evaluate_nmos(NMOS, W, L, 1.0, 2.0, 0.0).ids
        weak = evaluate_nmos(shifted, W, L, 1.0, 2.0, 0.0).ids
        assert weak < base

    def test_delta_vto_weakens_pmos_too(self):
        """Positive delta_vto must weaken either polarity (it shifts the
        threshold magnitude)."""
        shifted = PMOS.perturbed(delta_vto=0.05)
        base = evaluate_nmos(PMOS, W, L, 1.2, 2.0, 0.0).ids
        weak = evaluate_nmos(shifted, W, L, 1.2, 2.0, 0.0).ids
        assert weak < base

    def test_beta_factor_scales_current(self):
        scaled = NMOS.perturbed(beta_factor=1.1)
        base = evaluate_nmos(NMOS, W, L, 1.0, 2.0, 0.0).ids
        more = evaluate_nmos(scaled, W, L, 1.0, 2.0, 0.0).ids
        assert more == pytest.approx(1.1 * base, rel=1e-9)

    def test_no_perturbation_is_identity(self):
        assert NMOS.perturbed() is NMOS


class TestSoftplus:
    @given(x=st.floats(-0.5, 0.5))
    @settings(max_examples=50, deadline=None)
    def test_value_above_relu(self, x):
        value, _ = _softplus(x, DEFAULT_SMOOTHING_V)
        assert value >= max(x, 0.0) - 1e-15

    def test_extremes_do_not_overflow(self):
        value, slope = _softplus(500.0, DEFAULT_SMOOTHING_V)
        assert value == pytest.approx(500.0)
        assert slope == pytest.approx(1.0)
        value, slope = _softplus(-500.0, DEFAULT_SMOOTHING_V)
        assert value >= 0.0
        assert slope >= 0.0

    @given(x=st.floats(-0.3, 0.3))
    @settings(max_examples=50, deadline=None)
    def test_derivative_matches_fd(self, x):
        step = 1e-8
        hi, _ = _softplus(x + step, DEFAULT_SMOOTHING_V)
        lo, _ = _softplus(x - step, DEFAULT_SMOOTHING_V)
        _, slope = _softplus(x, DEFAULT_SMOOTHING_V)
        assert slope == pytest.approx((hi - lo) / (2 * step), abs=1e-4)


class TestCapacitances:
    def test_saturation_partition(self):
        cgs, cgd, cdb, csb = intrinsic_capacitances(NMOS, W, L, "saturation")
        channel = NMOS.cox * W * L
        assert cgs == pytest.approx(2 / 3 * channel + NMOS.cgso * W)
        assert cgd == pytest.approx(NMOS.cgdo * W)
        assert cdb == csb > 0

    def test_triode_splits_evenly(self):
        cgs, cgd, _, _ = intrinsic_capacitances(NMOS, W, L, "triode")
        assert cgs == pytest.approx(cgd, rel=0.25)  # overlaps differ only

    def test_cutoff_keeps_overlaps_only(self):
        cgs, cgd, _, _ = intrinsic_capacitances(NMOS, W, L, "cutoff")
        assert cgs == pytest.approx(NMOS.cgso * W)
        assert cgd == pytest.approx(NMOS.cgdo * W)

    def test_capacitance_scales_with_area(self):
        small = intrinsic_capacitances(NMOS, W, L, "saturation")[0]
        large = intrinsic_capacitances(NMOS, 2 * W, L, "saturation")[0]
        assert large > small


#: the ``evaluate_nmos`` outputs the vectorized forms return as arrays
MOS_FIELDS = ("ids", "gm", "gds", "gmb", "vth", "vdsat", "vov")


def assert_bitwise(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes(), (actual, expected)


@st.composite
def device_planes(draw):
    """A ``(samples, devices)`` plane: per device a ``generic035`` card
    at one of three temperatures with its geometry, per element the
    terminal voltages (``vds >= 0``, as the caller guarantees) and the
    statistical ``delta_vto``/``beta_factor``.  The gate voltage is
    drawn as an overdrive over the element's own threshold, often
    within 0.2 V of it, so both softplus cutoffs (``|vov| = 35 *
    smoothing = 0.14 V``) are crossed."""
    temp = draw(st.sampled_from((-40.0, 27.0, 125.0)))
    n_samples = draw(st.integers(1, 4))
    devices = [(draw(st.sampled_from((NMOS, PMOS))).at_temperature(temp),
                draw(st.floats(0.5e-6, 200e-6)),
                draw(st.floats(0.35e-6, 10e-6)))
               for _ in range(draw(st.integers(1, 4)))]

    def plane(values):
        return np.array([[draw(values) for _ in devices]
                         for _ in range(n_samples)])

    vds = plane(st.floats(0.0, 3.3))
    vbs = plane(st.floats(-3.3, 1.5))
    dvto = plane(st.floats(-0.1, 0.1))
    beta = plane(st.floats(0.8, 1.2))
    vov = plane(st.one_of(st.floats(-0.2, 0.2), st.floats(-1.0, 3.0)))
    vgs = np.array([[
        evaluate_nmos(card.perturbed(dvto[s, d], beta[s, d]), w, l, 0.0,
                      0.0, vbs[s, d]).vth + vov[s, d]
        for d, (card, w, l) in enumerate(devices)]
        for s in range(n_samples)])
    return devices, [vgs, vds, vbs, dvto, beta]


#: one plane reaching every branch: overdrive beyond both softplus
#: cutoffs (|t| > 35) and inside them on either side of zero,
#: saturation, triode and cutoff, and forward body bias on the linear
#: clamp (vbs 0.66, 0.68) and on its floor (vbs 1.0, 1.2)
BRANCH_PLANE = (
    [(NMOS, 10e-6, 1e-6), (PMOS.at_temperature(125.0), 20e-6, 2e-6)],
    [np.array([[2.0, 2.5], [0.45, 0.0], [0.52, 0.36], [1.0, 1.5]]),
     np.array([[3.0, 0.1], [1.0, 2.0], [0.0, 0.0], [0.05, 3.0]]),
     np.array([[0.0, -1.0], [0.0, 0.0], [0.68, 0.66], [1.2, 1.0]]),
     np.array([[0.0, 0.02], [-0.01, 0.0], [0.0, 0.03], [0.05, -0.05]]),
     np.array([[1.0, 0.9], [1.1, 1.0], [1.0, 0.95], [1.05, 1.2]])])


class TestVectorizedModel:
    """The vectorized level-1 model is the scalar one, bit for bit: the
    sample-batched engine's parity rests on it."""

    @given(plane=device_planes())
    @example(plane=BRANCH_PLANE)
    @settings(max_examples=80, deadline=None)
    def test_stacked_and_batch_equal_scalar_bitwise(self, plane):
        devices, (vgs, vds, vbs, dvto, beta) = plane
        pol = np.array([float(card.polarity) for card, _, _ in devices])
        vto = np.array([card.vto for card, _, _ in devices]) + pol * dvto
        kp = np.array([card.kp for card, _, _ in devices]) * beta
        stacked = evaluate_nmos_stacked(
            np.array([card.phi for card, _, _ in devices]),
            np.array([card.gamma for card, _, _ in devices]),
            np.array([card.smoothing for card, _, _ in devices]),
            np.array([card.lambda_ / (l * 1e6) for card, _, l in devices]),
            np.array([w / l for _, w, l in devices]),
            pol * vto, kp, vgs, vds, vbs)
        for d, (card, w, l) in enumerate(devices):
            batch = evaluate_nmos_batch(card, w, l, vgs[:, d], vds[:, d],
                                        vbs[:, d], vto=vto[:, d],
                                        kp=kp[:, d])
            nominal = evaluate_nmos_batch(card, w, l, vgs[:, d], vds[:, d],
                                          vbs[:, d])
            for s in range(vgs.shape[0]):
                args = (w, l, vgs[s, d], vds[s, d], vbs[s, d])
                ref = evaluate_nmos(card.perturbed(dvto[s, d], beta[s, d]),
                                    *args)
                ref_nominal = evaluate_nmos(card, *args)
                for name in MOS_FIELDS:
                    assert_bitwise(stacked[name][s, d], getattr(ref, name))
                    assert_bitwise(batch[name][s], getattr(ref, name))
                    assert_bitwise(nominal[name][s],
                                   getattr(ref_nominal, name))
                assert REGION_NAMES[stacked["region"][s, d]] == ref.region
                assert REGION_NAMES[batch["region"][s]] == ref.region
                assert REGION_NAMES[nominal["region"][s]] \
                    == ref_nominal.region

    @given(card=st.sampled_from((NMOS, PMOS)),
           temp=st.sampled_from((-40.0, 27.0, 125.0)),
           w=st.floats(0.5e-6, 200e-6), l=st.floats(0.35e-6, 10e-6))
    @settings(max_examples=40, deadline=None)
    def test_capacitances_batch_equal_scalar_in_each_region(self, card,
                                                            temp, w, l):
        card = card.at_temperature(temp)
        codes = np.array([2, 0, 1, 1, 0, 2])
        cgs, cgd, cdb, csb = intrinsic_capacitances_batch(card, w, l, codes)
        for i, code in enumerate(codes):
            ref = intrinsic_capacitances(card, w, l, REGION_NAMES[code])
            assert_bitwise([cgs[i], cgd[i], cdb, csb], ref)
