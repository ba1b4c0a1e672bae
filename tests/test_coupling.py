import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import j0, k0

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
        from scipy.special import j1, k1

        v = 2.0
        mode = solve_characteristic(v)
        us = np.linspace(1e-6, v * (1 - 1e-9), 2_000_001)
        ws = np.sqrt(v * v - us * us)
        vals = us * j1(us) / j0(us) - ws * k1(ws) / k0(ws)
        idx = np.nonzero(np.diff(np.sign(vals)) != 0)[0][0]
        assert abs(mode.u - us[idx]) < 1e-6

    def test_invalid_v(self):
        with pytest.raises(ValueError):
            solve_characteristic(0.0)

    def test_mode_invariant_enforced(self):
        with pytest.raises(ValueError):
            ModeSolution(v=2.0, u=1.0, w=1.0)


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
        with pytest.raises(ValueError):
            mode_field(-1e-9, FIBER, MODE)
        with pytest.raises(ValueError):
            mode_field(np.array([0.0, -1.0]), FIBER, MODE)

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

    def test_bounded_by_one(self):
        for w in (1.0, 5.0, 8.0, 20.0):
            assert 0.0 <= overlap_eta(GaussianBeam(w, 1550.0), FIBER, MODE) <= 1.0


class TestTilt:
    def test_zero_tilt_equals_overlap(self):
        beam = GaussianBeam(8.0, 1550.0)
        assert tilted_eta(beam, FIBER, MODE, 0.0) == pytest.approx(
            overlap_eta(beam, FIBER, MODE), abs=1e-12
        )

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


class TestFresnel:
    def test_matched_indices(self):
        assert fresnel_transmission(1.45, 1.45) == 1.0

    def test_air_silica(self):
        assert fresnel_transmission(1.0, 1.45) == pytest.approx(0.966264, abs=1e-6)

    def test_ar_coating_overrides(self):
        coated = near_cutoff_smf(1550.0, ar_coated=True)
        bare = near_cutoff_smf(1550.0, ar_coated=False)
        assert facet_transmission(coated) == 1.0
        assert facet_transmission(bare) == pytest.approx(0.966264, abs=1e-6)


class TestEffectiveCoupling:
    def test_hcf_constants(self):
        assert effective_coupling("HCF", 0.025) == 0.79
        assert effective_coupling("HCF", 0.0) == 0.98

    def test_rejects_anything_but_hcf_or_a_step_index_fiber(self):
        with pytest.raises(TypeError):
            effective_coupling(hcf_profile(), 0.025)
        with pytest.raises(TypeError):
            effective_coupling(1550.0, 0.025)

    def test_smf_at_design_tolerance(self):
        eta = effective_coupling(FIBER, 0.025, 1550.0)
        assert eta == pytest.approx(0.83, abs=0.05)

    def test_zero_tolerance_is_peak_times_facet(self):
        bare = near_cutoff_smf(1550.0, ar_coated=False)
        mode = fiber_mode(bare, 1550.0)
        _, eta_opt = optimize_waist(bare, mode)
        expected = eta_opt * facet_transmission(bare)
        assert effective_coupling(bare, 0.0, 1550.0) == pytest.approx(
            expected, abs=1e-9
        )


# ---------------------------------------------------------------------------
# quadrature against QUADPACK, one scalar callback per point
# ---------------------------------------------------------------------------

GRID_V = (0.6, 1.0, 1.6, 2.0, 2.4048)
GRID_WAVELENGTHS = (780.0, 1550.0)
GRID_WAIST_OVER_A = (0.2, 1.0, 5.0)
GRID_THETAS = (0.0, 0.05, 0.2, 0.45)
GRID_NA = 0.1


def _grid_fiber(v: float, wavelength: float) -> StepIndexFiber:
    a = v * wavelength * 1e-3 / (2.0 * math.pi * GRID_NA)
    return StepIndexFiber(a, 1.45, math.sqrt(1.45**2 - GRID_NA**2))


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


class TestQuadrature:
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

    @pytest.mark.parametrize("v", GRID_V)
    def test_closed_form_fiber_norm(self, v):
        fiber = _grid_fiber(v, 1550.0)
        mode = fiber_mode(fiber, 1550.0)
        ref = _reference_fiber_norm(fiber.core_radius_um, mode)
        assert _fiber_norm(fiber, mode) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_refines_an_integrand_the_first_panel_cannot_resolve(self):
        val = _gauss_legendre(lambda x: np.cos(200.0 * x), [0.0, 1.0])
        assert val == pytest.approx(math.sin(200.0) / 200.0, rel=1e-10, abs=0.0)

    def test_unresolved_at_the_panel_cap_raises(self):
        with pytest.raises(QuadratureError):
            _gauss_legendre(lambda x: np.cos(1e6 * x), [0.0, 1.0])

    def test_non_finite_integrand_raises(self):
        with pytest.raises(QuadratureError):
            _gauss_legendre(lambda x: np.where(x < 0.5, x, np.nan), [0.0, 1.0])

    def test_couple_exits_3_on_quadrature_failure(self, monkeypatch, tmp_path, capsys):
        def fail(fn, cuts):
            raise QuadratureError("forced")

        monkeypatch.setattr(coupling, "_gauss_legendre", fail)
        assert cli.main(["couple", "--out", str(tmp_path / "couple.csv")]) == 3
        assert "numeric failure" in capsys.readouterr().err


def test_cli_import_leaves_scipy_integrate_unloaded():
    src = pathlib.Path(coupling.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    code = "import sys, repeaterscope.cli; print('scipy.integrate' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert done.stdout.strip() == "False"
