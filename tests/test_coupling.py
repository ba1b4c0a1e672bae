import dataclasses
import math
import os
import pathlib
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.special import j0, j1, k0, k1

from repeaterscope import cli, coupling
from repeaterscope.channel import hcf_profile
from repeaterscope.coupling import (
    _TAIL_CUT,
    GaussianBeam,
    ModeSolution,
    QuadratureError,
    SILICA_INDEX,
    StepIndexFiber,
    _fiber_norm,
    _gauss_legendre,
    _overlap_from_waist,
    effective_coupling,
    facet_transmission,
    fiber_mode,
    fresnel_transmission,
    mode_field,
    near_cutoff_smf,
    normalized_frequency,
    optimize_waist,
    overlap_eta,
    solve_characteristic,
    tilted_eta,
)

FIBER = near_cutoff_smf(1550.0)
# a physical telecom fiber: 4.1 um core, NA 0.117
SMF28 = StepIndexFiber(4.1, SILICA_INDEX, math.sqrt(SILICA_INDEX**2 - 0.117**2))
MODE = fiber_mode(FIBER, 1550.0)

# fibers from far below to the single-mode cutoff, checked against QUADPACK
GRID_V = (0.6, 1.0, 1.6, 2.0, 2.4048)
GRID_WAVELENGTHS = (780.0, 1550.0)
GRID_WAIST_OVER_A = (0.2, 1.0, 5.0)
GRID_THETAS = (0.0, 0.05, 0.2, 0.45)
GRID_NA = 0.1


def _grid_fiber(v: float, wavelength: float) -> StepIndexFiber:
    a = v * wavelength * 1e-3 / (2.0 * math.pi * GRID_NA)
    return StepIndexFiber(a, 1.45, math.sqrt(1.45**2 - GRID_NA**2))


# the grid fibers and both near-cutoff presets, each at its own wavelength
MODE_CASES = [(_grid_fiber(v, wl), wl) for v in GRID_V for wl in GRID_WAVELENGTHS] + [
    (near_cutoff_smf(wl), wl) for wl in GRID_WAVELENGTHS
]

# the V whose LP01 root has W = 1: U J1(U)/J0(U) = K1(1)/K0(1)
W_IS_ONE_V = math.hypot(brentq(lambda u: u * j1(u) * k0(1.0) - k1(1.0) * j0(u), 0.5, 2.4), 1.0)


def _reference_mode(v: float) -> tuple[float, float]:
    """The LP01 root (U, W) of the float V, solved at 40 digits in ln W."""
    with mpmath.workdps(40):
        v = mpmath.mpf(v)

        def mismatch(s):
            w = mpmath.exp(s)
            u = mpmath.sqrt(v * v - w * w)
            j0u, j1u = mpmath.besselj(0, u), mpmath.besselj(1, u)
            return u * j1u * mpmath.besselk(0, w) - w * mpmath.besselk(1, w) * j0u

        top = mpmath.log(v) - mpmath.mpf(10) ** -30
        w = mpmath.exp(mpmath.findroot(mismatch, (-800, top), solver="anderson"))
        return float(mpmath.sqrt(v * v - w * w)), float(w)


def _reference_u_by_bisection(v: float) -> float:
    """The LP01 U of the float V, bisected at 60 digits on (0, 2.4048).

    The pole-free function is -W K1(W) < 0 at U = 0 and U J1(U) K0(W) > 0 at
    the zero of J0, so the bracket needs no search in W, whose K0 is far
    below the float range at large V.
    """
    with mpmath.workdps(60):
        v = mpmath.mpf(v)
        lo, hi = mpmath.mpf(0), mpmath.mpf(coupling.SINGLE_MODE_CUTOFF_V)
        for _ in range(120):
            u = (lo + hi) / 2
            w = mpmath.sqrt(v * v - u * u)
            val = u * mpmath.besselj(1, u) * mpmath.besselk(0, w)
            if val < w * mpmath.besselk(1, w) * mpmath.besselj(0, u):
                lo = u
            else:
                hi = u
        return float((lo + hi) / 2)


def _count_evaluations(monkeypatch) -> list[float]:
    """The points at which ``coupling._characteristic`` is called from now on."""
    calls = []
    characteristic = coupling._characteristic

    def counting(t, v):
        calls.append(t)
        return characteristic(t, v)

    monkeypatch.setattr(coupling, "_characteristic", counting)
    return calls


class TestNormalizedFrequency:
    def test_inversion(self):
        na = 0.12
        wavelength = 1310.0
        a = 2.405 * (wavelength * 1e-3) / (2 * math.pi * na)
        fiber = StepIndexFiber(a, 1.45, math.sqrt(1.45**2 - na**2))
        with pytest.warns(UserWarning):
            v = normalized_frequency(fiber, wavelength)
        assert v == pytest.approx(2.405, rel=1e-12)

    def test_smf28_value(self):
        assert normalized_frequency(SMF28, 1550.0) == pytest.approx(
            1.9445, abs=1e-3
        )

    def test_wavelength_scaling(self):
        fiber = SMF28
        assert normalized_frequency(fiber, 3100.0) == pytest.approx(
            normalized_frequency(fiber, 1550.0) / 2.0, rel=1e-12
        )

    @pytest.mark.parametrize("wavelength", [0.0, -1550.0, math.nan, math.inf])
    def test_invalid_wavelength_rejected(self, wavelength):
        with pytest.raises(ValueError, match="wavelength must be positive and finite"):
            normalized_frequency(SMF28, wavelength)
        with pytest.raises(ValueError, match="wavelength must be positive and finite"):
            GaussianBeam(5.0, wavelength)


class TestStepIndexFiber:
    @pytest.mark.parametrize(
        "radius, n1, n2, named",
        [
            pytest.param(0.0, 1.45, 1.44, "core radius", id="zero-radius"),
            pytest.param(math.inf, 1.45, 1.44, "core radius", id="infinite-radius"),
            pytest.param(math.nan, 1.45, 1.44, "core radius", id="nan-radius"),
            pytest.param(4.1, 1.44, 1.45, "n1 > n2", id="core-below-cladding"),
            pytest.param(4.1, 0.95, 0.9, "n1 > n2", id="cladding-below-1"),
            pytest.param(4.1, 2.0, 1.0, "numerical aperture", id="aperture-above-1"),
        ],
    )
    def test_invalid_geometry_rejected(self, radius, n1, n2, named):
        with pytest.raises(ValueError, match=named):
            StepIndexFiber(radius, n1, n2)


class TestCharacteristicEquation:
    def test_near_cutoff_root(self):
        mode = solve_characteristic(2.405)
        assert mode.u == pytest.approx(1.645, abs=5e-3)
        assert mode.w == pytest.approx(1.754, abs=5e-3)

    def test_pythagorean_identity(self):
        for v in (0.9, 1.4, 2.0, 2.405):
            mode = solve_characteristic(v)
            assert mode.u**2 + mode.w**2 == pytest.approx(v**2, abs=1e-9)

    def test_cutoff_limit_w_vanishes(self):
        mode = solve_characteristic(0.4)
        assert mode.w < 0.05

    def test_matches_fine_grid_sign_scan(self):
        # independent dense scan for the bracketing sign change
        v = 2.0
        mode = solve_characteristic(v)
        us = np.linspace(1e-6, v * (1 - 1e-9), 2_000_001)
        ws = np.sqrt(v * v - us * us)
        vals = us * j1(us) / j0(us) - ws * k1(ws) / k0(ws)
        idx = np.nonzero(np.diff(np.sign(vals)) != 0)[0][0]
        assert abs(mode.u - us[idx]) < 1e-6

    @pytest.mark.parametrize("fiber, wavelength", MODE_CASES)
    def test_root_within_four_ulps_of_a_sign_change(self, fiber, wavelength):
        # the unmultiplied mismatch U J1/J0 - W K1/K0, from 4 ulps below u
        # to 4 ulps above it
        mode = fiber_mode(fiber, wavelength)
        v = mode.v
        us = mode.u + math.ulp(mode.u) * np.arange(-4, 5)
        ws = np.sqrt(v * v - us * us)
        signs = np.sign(us * j1(us) / j0(us) - ws * k1(ws) / k0(ws))
        assert signs.min() <= 0.0 <= signs.max()

    @pytest.mark.parametrize("fiber, wavelength", MODE_CASES)
    def test_solve_takes_at_most_24_evaluations(self, fiber, wavelength, monkeypatch):
        calls = _count_evaluations(monkeypatch)
        fiber_mode(fiber, wavelength)
        assert 2 < len(calls) <= 24

    @pytest.mark.parametrize("v", [0.0532, 0.2, 0.3671, W_IS_ONE_V, 2.404825557695773, 3.0])
    def test_solve_takes_at_most_24_evaluations_across_the_range(self, v, monkeypatch):
        # from just above the floor to past the cutoff; W_IS_ONE_V puts the
        # root at ln W = 0, where a search in ln W itself would chase float
        # steps of ln W far finer than those of W
        calls = _count_evaluations(monkeypatch)
        solve_characteristic(v)
        assert 2 < len(calls) <= 24

    # 0.2 and 0.3671 have roots with W (2.8e-22 and 5.2e-7) under V sqrt(2e-12),
    # out of reach of a search in U
    @pytest.mark.parametrize("v", [*np.linspace(0.06, 2.4048, 24).tolist(), 0.2, 0.3671])
    def test_matches_a_40_digit_root(self, v):
        mode = solve_characteristic(v)
        u_ref, w_ref = _reference_mode(v)
        assert abs(mode.u / u_ref - 1.0) <= 1e-15
        # K0(W) ~ -ln W, so ln W is fixed only to a few roundings of itself:
        # W within 1e-13 while |ln W| <= 100, within 1e-15 |ln W| beyond
        assert abs(math.log(mode.w / w_ref)) <= 1e-15 * max(100.0, -math.log(w_ref))

    def test_underflowing_v_raises_solver_error(self):
        # the root's W, about 1.12 exp(-2/V^2), is below the smallest normal
        # float, where the function, about V J1(V) ln(1/W) - J0(V), is still
        # negative like the top end's -V K1(V); a subnormal V has no normal
        # W below it at all
        for v in (0.0531, 1e-160, 5e-324):
            with pytest.raises(coupling.SolverError):
                solve_characteristic(v)

    # the root's end values, about K0(V), are near 2^-700 at V 500: their
    # product, once used to compare signs, underflowed to zero from V 350
    @pytest.mark.parametrize("v", [400.0, 500.0, 650.0])
    def test_large_v_matches_a_60_digit_root(self, v):
        mode = solve_characteristic(v)
        # W lies within 2 V^-2 of V, so U = sqrt((V - W)(V + W)) carries the
        # rounding of W relative to V - W
        assert abs(mode.u / _reference_u_by_bisection(v) - 1.0) <= 1e-11

    @pytest.mark.parametrize("v", [700.0, 1000.0])
    def test_v_above_the_ceiling_raises_solver_error(self, v):
        # K0(V) < 2^-970: the function's values near the root approach the
        # subnormals, where the root finder's steps lose their precision
        with pytest.raises(coupling.SolverError):
            solve_characteristic(v)

    def test_invalid_v(self):
        # NaN and inf failed no test and raised SolverError "no sign change"
        for v in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                solve_characteristic(v)

    def test_mode_invariant_enforced(self):
        with pytest.raises(ValueError):
            ModeSolution(v=2.0, u=1.0, w=1.0)

    @pytest.mark.parametrize(
        "u, w, named",
        [
            pytest.param(0.0, 1.0, "u outside", id="u-zero"),
            pytest.param(2.5, math.sqrt(3.0**2 - 2.5**2), "u outside", id="u-above-cutoff"),
            pytest.param(1.0, 0.0, "w must be positive", id="w-zero"),
            pytest.param(1.0, -1.0, "w must be positive", id="w-negative"),
        ],
    )
    def test_mode_outside_the_guided_range_rejected(self, u, w, named):
        with pytest.raises(ValueError, match=named):
            ModeSolution(v=math.hypot(u, w), u=u, w=w)

    def test_non_finite_mode_rejected(self):
        # NaN slips through every comparison of the u^2 + w^2 = v^2 check
        with pytest.raises(ValueError):
            ModeSolution(v=math.nan, u=1.0, w=math.nan)


class TestModeField:
    def test_center_value(self):
        assert mode_field(0.0, FIBER, MODE) == pytest.approx(1.0)

    def test_continuity_at_core_edge(self):
        a = FIBER.core_radius_um
        inner = mode_field(a, FIBER, MODE)
        outer = mode_field(a * (1 + 1e-13), FIBER, MODE)
        assert inner == pytest.approx(outer, abs=1e-12)
        assert inner == pytest.approx(float(j0(MODE.u)), abs=1e-12)

    def test_cladding_matches_bessel_reference(self):
        a = FIBER.core_radius_um
        expected = float(j0(MODE.u) / k0(MODE.w) * k0(2.0 * MODE.w))
        assert mode_field(2.0 * a, FIBER, MODE) == pytest.approx(expected, abs=1e-10)

    def test_array_matches_scalar_calls(self):
        a = FIBER.core_radius_um
        radii = np.array([[0.0, 0.5 * a, a], [a * (1 + 1e-13), 2.0 * a, 9.0 * a]])
        field = mode_field(radii, FIBER, MODE)
        assert field.shape == radii.shape
        expected = [[mode_field(float(r), FIBER, MODE) for r in row] for row in radii]
        assert field.tolist() == expected

    def test_negative_radius_rejected(self):
        # NaN passes a test for r < 0, and an infinite radius gave 0.0
        for r in (-1e-9, np.array([0.0, -1.0]), math.nan, math.inf, np.array([0.0, math.nan])):
            with pytest.raises(ValueError):
                mode_field(r, FIBER, MODE)

    def test_monotone_decay_outside_core(self):
        a = FIBER.core_radius_um
        radii = np.linspace(a, 4 * a, 50)
        vals = [mode_field(float(r), FIBER, MODE) for r in radii]
        assert all(hi >= lo - 1e-12 for hi, lo in zip(vals, vals[1:]))


class TestOverlap:
    def test_optimum_matches_published_numbers(self):
        mode = solve_characteristic(2.405)
        fiber = StepIndexFiber(5.0, 1.45, 1.449, ar_coated=True)
        w_opt, eta_opt = optimize_waist(fiber, mode)
        assert eta_opt == pytest.approx(0.997, abs=2e-3)
        assert w_opt / fiber.core_radius_um == pytest.approx(1.09, abs=0.02)

    def test_vanishing_waist(self):
        eta = overlap_eta(GaussianBeam(1e-3, 1550.0), FIBER, MODE)
        assert eta < 1e-4

    def test_unimodal_around_optimum(self):
        w_opt, eta_opt = optimize_waist(FIBER, MODE)
        for factor in (0.5, 2.0):
            eta = overlap_eta(GaussianBeam(w_opt * factor, 1550.0), FIBER, MODE)
            assert eta < eta_opt

    def test_scale_invariance(self):
        mode = solve_characteristic(2.2)
        small = StepIndexFiber(3.0, 1.45, 1.449)
        large = StepIndexFiber(9.0, 1.45, 1.449)
        w_s, eta_s = optimize_waist(small, mode)
        w_l, eta_l = optimize_waist(large, mode)
        assert w_l / large.core_radius_um == pytest.approx(
            w_s / small.core_radius_um, rel=1e-4
        )
        assert eta_l == pytest.approx(eta_s, abs=1e-6)

    def test_grid_scan_agrees(self):
        mode = solve_characteristic(2.0)
        fiber = StepIndexFiber(4.0, 1.45, 1.449)
        w_opt, eta_opt = optimize_waist(fiber, mode)
        from repeaterscope.coupling import _overlap_from_waist

        grid = np.linspace(0.2 * 4.0, 5 * 4.0, 3000)
        etas = [_overlap_from_waist(float(w), fiber, mode) for w in grid]
        best = int(np.argmax(etas))
        assert abs(grid[best] - w_opt) < 1e-2
        assert etas[best] == pytest.approx(eta_opt, abs=1e-4)

    @pytest.mark.parametrize("wavelength", GRID_WAVELENGTHS)
    @pytest.mark.parametrize("v", GRID_V)
    def test_waist_meets_stationarity_reference(self, v, wavelength, monkeypatch):
        fiber = _grid_fiber(v, wavelength)
        mode = fiber_mode(fiber, wavelength)
        a = fiber.core_radius_um
        slopes = []
        stationarity = coupling._stationarity

        def counting(waist, layout):
            slopes.append(waist)
            return stationarity(waist, layout)

        monkeypatch.setattr(coupling, "_stationarity", counting)
        w_opt, _ = optimize_waist(fiber, mode)
        if v <= 1.0:
            # the overlap still rises at the upper bound, which is the optimum
            assert _reference_stationarity(5.0 * a, a, mode) > 0.0
            reference = 5.0 * a
            assert len(slopes) <= 4
        else:
            reference = brentq(
                _reference_stationarity, 0.2 * a, 5.0 * a, args=(a, mode), xtol=1e-15 * a, rtol=1e-15
            )
        assert abs(w_opt - reference) <= 1e-13 * reference

    @pytest.mark.parametrize(
        "root_over_a, evaluations",
        [
            pytest.param(3.0, 4, id="above-the-fit-bracket"),
            pytest.param(0.5, 5, id="below-the-fit-bracket"),
            pytest.param(0.1, 3, id="below-the-lower-bound"),
            pytest.param(6.0, 3, id="above-the-upper-bound"),
        ],
    )
    def test_bracket_extends_to_the_bound_the_slope_points_at(
        self, root_over_a, evaluations, monkeypatch
    ):
        # Marcuse's fit lies within 2.2% of the true root for V in [1, 600],
        # so a synthetic slope, positive below its root, moves the root out
        a = FIBER.core_radius_um
        root = root_over_a * a
        w_fit = a * (0.65 + 1.619 * MODE.v**-1.5 + 2.879 * MODE.v**-6)
        slopes, layouts = [], []
        layout = coupling._layout

        def slope(waist, layout):
            slopes.append(waist)
            return root - waist

        def counting(waist, *args):
            layouts.append(waist)
            return layout(waist, *args)

        monkeypatch.setattr(coupling, "_stationarity", slope)
        monkeypatch.setattr(coupling, "_layout", counting)
        w_opt, _ = optimize_waist(FIBER, MODE)
        bound = 5.0 * a if root_over_a > 1.0 else 0.2 * a
        assert slopes[:3] == [0.97 * w_fit, 1.03 * w_fit, bound]
        # one layout per bracket, that of its upper waist: a bracket that
        # extends up to 5a takes a second one
        assert layouts == [1.03 * w_fit, bound] if root_over_a > 1.0 else [1.03 * w_fit]
        assert len(slopes) == evaluations
        if 0.2 <= root_over_a <= 5.0:
            assert w_opt in slopes
            assert abs(w_opt - root) <= 4.0 * math.ulp(root)
        else:
            assert w_opt == bound

    def test_falsi_root_closes_on_an_evaluated_root(self):
        tried = []

        def fn(x):
            tried.append(x)
            return math.cos(x) - x

        root = coupling._falsi_root(fn, 0.0, 1.0, fn(0.0), fn(1.0))
        assert abs(root - 0.7390851332151607) <= 4.0 * math.ulp(root)
        assert root in tried
        assert len(tried) <= 12

    def test_bounded_by_one(self):
        for w in (1.0, 5.0, 8.0, 20.0):
            assert 0.0 <= overlap_eta(GaussianBeam(w, 1550.0), FIBER, MODE) <= 1.0

    @pytest.mark.parametrize("waist", [math.nan, math.inf])
    def test_non_finite_waist_rejected(self, waist):
        with pytest.raises(ValueError):
            GaussianBeam(waist, 1550.0)


class TestTilt:
    def test_zero_tilt_equals_overlap(self):
        beam = GaussianBeam(8.0, 1550.0)
        assert tilted_eta(beam, FIBER, MODE, 0.0) == overlap_eta(beam, FIBER, MODE)

    def test_symmetric_in_angle(self):
        beam = GaussianBeam(8.0, 1550.0)
        assert tilted_eta(beam, FIBER, MODE, 0.02) == pytest.approx(
            tilted_eta(beam, FIBER, MODE, -0.02), abs=1e-12
        )

    def test_monotone_decay_over_tolerance_range(self):
        w_opt, _ = optimize_waist(FIBER, MODE)
        beam = GaussianBeam(w_opt, 1550.0)
        angles = np.linspace(0.0, 0.1, 21)
        etas = [tilted_eta(beam, FIBER, MODE, float(t)) for t in angles]
        assert all(hi >= lo - 1e-12 for hi, lo in zip(etas, etas[1:]))

    def test_large_angle_rejected(self):
        with pytest.raises(ValueError):
            tilted_eta(GaussianBeam(8.0, 1550.0), FIBER, MODE, 0.6)

    def test_tilt_scan_reuses_the_beams_starting_panels(self, monkeypatch):
        fields, node_builds, slopes = [], [], []
        field, panel_nodes = coupling._field, coupling._panel_nodes
        stationarity = coupling._stationarity

        def counting_field(r, *args):
            fields.append(r.shape)
            return field(r, *args)

        def counting_nodes(lo, hi):
            node_builds.append(lo.size)
            return panel_nodes(lo, hi)

        def counting_slope(waist, layout):
            slopes.append(waist)
            return stationarity(waist, layout)

        monkeypatch.setattr(coupling, "_field", counting_field)
        monkeypatch.setattr(coupling, "_panel_nodes", counting_nodes)
        monkeypatch.setattr(coupling, "_stationarity", counting_slope)
        coupling._starting_panels.cache_clear()
        w_opt, _ = optimize_waist(FIBER, MODE)
        searched, built = len(fields), len(node_builds)
        beam = GaussianBeam(w_opt, 1550.0)
        for theta in np.linspace(0.0, 0.05, 26):
            tilted_eta(beam, FIBER, MODE, float(theta))
        # the field on one layout for the whole search, whose bracket does
        # not extend to 5a, and once more on the first pass of w_opt, a waist
        # the search tried; none of the 26 tilts builds nodes or evaluates
        # the field again.  A refinement pass would evaluate the field, so
        # every node build counted here is a first pass's.
        assert len(slopes) == 8
        assert w_opt in slopes
        assert searched == 2
        assert built == 2
        assert fields == [(2, 72), (2, 72)]
        assert len(fields) == searched
        assert len(node_builds) == built
        assert coupling._starting_panels.cache_info().currsize == 1


class TestFresnel:
    def test_matched_indices(self):
        assert fresnel_transmission(1.45, 1.45) == 1.0

    def test_air_silica(self):
        assert fresnel_transmission(1.0, 1.45) == pytest.approx(0.966264, abs=1e-6)

    @pytest.mark.parametrize(
        "n0, n1", [(0.5, 1.45), (math.nan, 1.45), (1.0, math.nan), (math.inf, 1.45)]
    )
    def test_invalid_index_rejected(self, n0, n1):
        with pytest.raises(ValueError):
            fresnel_transmission(n0, n1)

    def test_ar_coating_overrides(self):
        coated = near_cutoff_smf(1550.0)
        bare = dataclasses.replace(coated, ar_coated=False)
        assert facet_transmission(coated) == 1.0
        assert facet_transmission(bare) == pytest.approx(0.966264, abs=1e-6)


class TestEffectiveCoupling:
    def test_hcf_constants(self):
        assert effective_coupling("HCF", 0.025) == 0.79
        assert effective_coupling("HCF", 0.0) == 0.98

    def test_nan_tolerance_rejected(self):
        with pytest.raises(ValueError):
            effective_coupling("HCF", math.nan)

    def test_rejects_anything_but_hcf_or_a_step_index_fiber(self):
        with pytest.raises(TypeError):
            effective_coupling(hcf_profile(), 0.025)
        with pytest.raises(TypeError):
            effective_coupling(1550.0, 0.025)

    def test_smf_at_design_tolerance(self):
        eta = effective_coupling(FIBER, 0.025)
        assert eta == pytest.approx(0.83, abs=0.05)

    def test_zero_tolerance_is_peak_times_facet(self):
        bare = dataclasses.replace(FIBER, ar_coated=False)
        mode = fiber_mode(bare, 1550.0)
        _, eta_opt = optimize_waist(bare, mode)
        expected = eta_opt * facet_transmission(bare)
        assert effective_coupling(bare, 0.0) == pytest.approx(
            expected, abs=1e-9
        )


# ---------------------------------------------------------------------------
# quadrature against QUADPACK, one scalar callback per point
# ---------------------------------------------------------------------------

def _quad(fn, lo: float, hi: float) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(fn, lo, hi, epsabs=0.0, epsrel=1e-10, limit=300)[0]


def _field(r: float, a: float, mode: ModeSolution) -> float:
    if r <= a:
        return float(j0(mode.u * r / a))
    return float(j0(mode.u) / k0(mode.w) * k0(mode.w * r / a))


def _reference_fiber_norm(a: float, mode: ModeSolution) -> float:
    def power(r):
        return _field(r, a, mode) ** 2 * r

    return _quad(power, 0.0, a) + _quad(power, a, math.inf)


def _reference_stationarity(waist: float, a: float, mode: ModeSolution) -> float:
    """The overlap's waist derivative up to a positive factor, with QUADPACK.

    d ln(eta)/dw = 0 where the overlap numerator N satisfies w N'(w) = N(w),
    that is where the integral of F(r) exp(-r^2/w^2) r (2 r^2/w^2 - 1)
    vanishes; it is positive while the overlap still rises with the waist.
    """

    def integrand(r):
        s = (r / waist) ** 2
        return _field(r, a, mode) * math.exp(-s) * r * (2.0 * s - 1.0)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return sum(
            quad(integrand, lo, hi, epsabs=0.0, epsrel=1.2e-14, limit=500)[0]
            for lo, hi in ((0.0, a), (a, math.inf))
        )


def _reference_overlap(waist: float, a: float, mode: ModeSolution, q: float) -> float:
    """The truncated overlap integral, segment by segment with ``quad``."""
    r_clad = a * (1.0 + _TAIL_CUT / mode.w + 2.0)
    r_gauss = waist * math.sqrt(_TAIL_CUT)
    r_max = max(min(r_clad, a + r_gauss), 1.01 * a)

    def integrand(r):
        return _field(r, a, mode) * math.exp(-((r / waist) ** 2)) * r * float(j0(q * r))

    cuts = sorted({0.0, min(r_gauss, a), a, r_max})
    num = sum(_quad(integrand, lo, hi) for lo, hi in zip(cuts, cuts[1:]))
    gauss_norm = _quad(lambda r: math.exp(-2.0 * (r / waist) ** 2) * r, 0.0, r_gauss)
    return min(num * num / (_reference_fiber_norm(a, mode) * gauss_norm), 1.0)


def integrate(fn, cuts) -> float:
    """``_gauss_legendre`` of ``fn`` from its first pass on the panels between the cuts."""
    lo, hi = np.array(cuts[:-1], dtype=float), np.array(cuts[1:], dtype=float)
    panels = coupling._panels_between(lo, hi)
    return _gauss_legendre(fn, panels, fn(panels.nodes))


def _array_gate(fn, panels, f, floor=0.0) -> float:
    """``_gauss_legendre`` as it ran on numpy arrays, with numpy's sums.

    The float gate keeps its bits wherever no pass has more than two panels:
    the same matrix-vector products give the panel sums, and a two-term
    ``math.fsum`` rounds as numpy's sum of two does.
    """
    lo, hi = panels.lo, panels.hi
    start, end = lo[0], hi[-1]
    span = end - start
    half = 0.5 * (hi - lo)
    done_val = done_err = 0.0
    panels = lo.size
    while True:
        fine = half * (f[:, coupling._COARSE :] @ coupling._FINE_W)
        gap = np.abs(fine - half * (f[:, : coupling._COARSE] @ coupling._COARSE_W))
        val = done_val + fine.sum()
        split = gap > coupling._EPSREL * max(abs(val), floor) * (2.0 / span) * half
        n_split = int(np.count_nonzero(split))
        if n_split == 0 or panels + n_split > coupling._MAX_PANELS:
            err = done_err + gap.sum()
            break
        keep = ~split
        done_val += fine[keep].sum()
        done_err += gap[keep].sum()
        lo, hi = lo[split], hi[split]
        mid = 0.5 * (hi + lo)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        panels += n_split
        half = 0.5 * (hi - lo)
        f = fn(coupling._panel_nodes(lo, hi))
    if not math.isfinite(val) or (err > 1e-8 * max(abs(val), floor) and err > 1e-13):
        raise QuadratureError(f"quadrature failed on ({start}, {end})")
    return float(val)


class TestQuadrature:
    def test_float_gate_keeps_the_array_gates_bits(self, monkeypatch):
        widest, passes = {}, {}
        float_gate = coupling._gauss_legendre

        def tracking(fn, panels, first, floor=0.0):
            # the widest pass, in panels, and the number of passes
            def counted(r):
                widest[key] = max(widest[key], r.shape[0])
                passes[key] += 1
                return fn(r)

            widest[key], passes[key] = panels.lo.size, 1
            return float_gate(counted, panels, first, floor)

        moved = {}
        for v in GRID_V:
            for wavelength in GRID_WAVELENGTHS:
                fiber = _grid_fiber(v, wavelength)
                mode = fiber_mode(fiber, wavelength)
                k_free = 2.0 * math.pi / (wavelength * 1e-3)
                for ratio in GRID_WAIST_OVER_A:
                    for theta in GRID_THETAS:
                        key = (v, wavelength, ratio, theta)
                        args = (ratio * fiber.core_radius_um, fiber, mode, k_free * math.sin(theta))
                        monkeypatch.setattr(coupling, "_gauss_legendre", tracking)
                        eta = _overlap_from_waist(*args)
                        monkeypatch.setattr(coupling, "_gauss_legendre", _array_gate)
                        ref = _overlap_from_waist(*args)
                        monkeypatch.undo()
                        if widest[key] <= 2:
                            assert eta == ref, key
                        else:
                            moved[key] = abs(eta / ref - 1.0)
        assert sum(n > 1 for n in passes.values()) == 42
        assert moved and max(moved.values()) <= 2e-13

    def test_every_starting_pass_has_two_panels(self):
        # a waist of at least 0.2a puts the Gaussian's cut, 0.2a sqrt(ln 1e16)
        # = 1.21a, outside the core: the panels are the core and the cladding
        for v in GRID_V:
            for wavelength in GRID_WAVELENGTHS:
                fiber = _grid_fiber(v, wavelength)
                mode = fiber_mode(fiber, wavelength)
                a = fiber.core_radius_um
                for waist in np.geomspace(0.2 * a, 5.0 * a, 25).tolist():
                    panels, first, _ = coupling._starting_panels(waist, fiber, mode)
                    assert panels.lo.size == 2 and panels.nodes.shape == first.shape == (2, 72)
                    assert panels.hi[0] == panels.lo[1] == a

    @pytest.mark.parametrize("wavelength", GRID_WAVELENGTHS)
    @pytest.mark.parametrize("v", GRID_V)
    def test_overlap_matches_quadpack(self, v, wavelength):
        fiber = _grid_fiber(v, wavelength)
        mode = fiber_mode(fiber, wavelength)
        a = fiber.core_radius_um
        k_free = 2.0 * math.pi / (wavelength * 1e-3)
        for ratio in GRID_WAIST_OVER_A:
            for theta in GRID_THETAS:
                q = k_free * math.sin(theta)
                eta = _overlap_from_waist(ratio * a, fiber, mode, tilt_wavenumber=q)
                ref = _reference_overlap(ratio * a, a, mode, q)
                assert eta == pytest.approx(ref, rel=1e-9, abs=0.0), (ratio, theta)

    def test_cached_panels_keep_the_plain_integrands_bits(self, monkeypatch):
        passes = {}
        gauss_legendre = coupling._gauss_legendre

        def counting(fn, panels, first):
            # the handed first pass counts as one, each refinement as another
            def counted(r):
                passes[key] += 1
                return fn(r)

            passes[key] = passes.get(key, 0) + 1
            return gauss_legendre(counted, panels, first)

        def plain(waist, fiber, mode, q):
            # the overlap evaluated with no cache: every pass calls mode_field
            def integrand(r):
                val = mode_field(r, fiber, mode) * np.exp(-((r / waist) ** 2)) * r
                return val * j0(q * r) if q != 0.0 else val

            panels = coupling._starting_panels(waist, fiber, mode).panels
            num = gauss_legendre(integrand, panels, integrand(panels.nodes))
            gauss_norm = 0.25 * waist**2 * -math.expm1(-2.0 * _TAIL_CUT)
            return min(num * num / (_fiber_norm(fiber, mode) * gauss_norm), 1.0)

        def clear():
            coupling._starting_panels.cache_clear()
            coupling._mode_constants.cache_clear()

        for v in GRID_V:
            for wavelength in GRID_WAVELENGTHS:
                fiber = _grid_fiber(v, wavelength)
                mode = fiber_mode(fiber, wavelength)
                k_free = 2.0 * math.pi / (wavelength * 1e-3)
                for ratio in GRID_WAIST_OVER_A:
                    waist = ratio * fiber.core_radius_um
                    qs = [k_free * math.sin(theta) for theta in GRID_THETAS]
                    expected = [plain(waist, fiber, mode, q) for q in qs]
                    monkeypatch.setattr(coupling, "_gauss_legendre", counting)
                    cold = []
                    for theta, q in zip(GRID_THETAS, qs):
                        clear()
                        key = (v, wavelength, ratio, theta)
                        cold.append(_overlap_from_waist(waist, fiber, mode, q))
                    monkeypatch.undo()
                    warm = [_overlap_from_waist(waist, fiber, mode, q) for q in qs]
                    clear()
                    backward = [_overlap_from_waist(waist, fiber, mode, q) for q in qs[::-1]]
                    assert cold == expected, (v, wavelength, ratio)
                    assert warm == expected, (v, wavelength, ratio)
                    assert backward[::-1] == expected, (v, wavelength, ratio)
        # cases that refine after their cached first pass are in the grid
        assert passes[(1.0, 780.0, 5.0, 0.45)] > 1
        assert sum(n > 1 for n in passes.values()) == 42

    @pytest.mark.parametrize("v", GRID_V)
    def test_closed_form_fiber_norm(self, v):
        fiber = _grid_fiber(v, 1550.0)
        mode = fiber_mode(fiber, 1550.0)
        ref = _reference_fiber_norm(fiber.core_radius_um, mode)
        assert _fiber_norm(fiber, mode) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_refines_an_integrand_the_first_panel_cannot_resolve(self):
        val = integrate(lambda x: np.cos(200.0 * x), [0.0, 1.0])
        assert val == pytest.approx(math.sin(200.0) / 200.0, rel=1e-10, abs=0.0)

    def test_unresolved_at_the_panel_cap_raises(self):
        with pytest.raises(QuadratureError):
            integrate(lambda x: np.cos(1e6 * x), [0.0, 1.0])

    def test_non_finite_integrand_raises(self):
        # NaN, infinities of both signs (where math.fsum raises ValueError),
        # finite panels whose sum overflows (where it raises OverflowError),
        # and NaN at one 24-point node only, which leaves the 48-point value
        # finite and the error estimate NaN
        node = coupling._panel_nodes(np.zeros(1), np.ones(1))[0, 0]
        for fn, cuts in (
            (lambda x: np.where(x < 0.5, x, np.nan), [0.0, 1.0]),
            (lambda x: np.where(x < 1.0, np.inf, -np.inf), [0.0, 1.0, 2.0]),
            (lambda x: np.full_like(x, 6e307), [0.0, 2.0, 4.0]),
            (lambda x: np.where(x == node, np.nan, np.cos(x)), [0.0, 1.0]),
        ):
            with pytest.raises(QuadratureError):
                integrate(fn, cuts)

    def test_couple_exits_3_on_quadrature_failure(self, monkeypatch, tmp_path, capsys):
        def fail(fn, panels, first, floor=0.0):
            raise QuadratureError("forced")

        monkeypatch.setattr(coupling, "_gauss_legendre", fail)
        assert cli.main(["couple", "--out", str(tmp_path / "couple.csv")]) == 3
        assert "numeric failure" in capsys.readouterr().err


def _printed_by_fresh_interpreter(code: str) -> list[str]:
    """What ``code`` prints in a new interpreter that imports this source tree."""
    src = pathlib.Path(coupling.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return done.stdout.split()


def test_cli_import_leaves_scipy_integrate_unloaded():
    printed = _printed_by_fresh_interpreter(
        "import sys, repeaterscope.cli; "
        "print('scipy.integrate' in sys.modules, 'repeaterscope.coupling' in sys.modules, "
        "any(name.split('.')[0] == 'scipy' for name in sys.modules))"
    )
    # only ``couple`` loads the mode solver, and the model path needs no scipy
    assert printed == ["False", "False", "False"]


def test_coupling_import_leaves_scipy_optimize_unloaded():
    # the waist search is written in-house: importing scipy.optimize would add
    # a fifth of a second or more to every ``couple`` run
    printed = _printed_by_fresh_interpreter(
        "import sys, repeaterscope.coupling; print('scipy.optimize' in sys.modules)"
    )
    assert printed == ["False"]
