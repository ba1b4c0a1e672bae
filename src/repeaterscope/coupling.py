"""Scalar LP01 mode model for step-index fiber and Gaussian facet coupling.

The weakly-guiding approximation reduces the fundamental mode to a scalar
radial profile: J0 in the core, matched K0 decay in the cladding.  Coupling
of a free-space Gaussian beam is the normalized radial overlap; an angular
tilt of the beam adds a J0 phase-averaging kernel; an uncoated facet pays
the Fresnel transmission of the air-glass step.

Hollow-core (double-nested anti-resonant) designs need a full vector mode
solve, so they enter as the tabulated facet constants of ``channel``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import j0, j1, k0, k1

from .channel import HCF_COUPLING_AT_TOL, HCF_PEAK_COUPLING, TELECOM_NM

SINGLE_MODE_CUTOFF_V = 2.404825557695773  # first zero of J0
# warn a little above the cutoff: near_cutoff_smf gives V = 2.40482555769589
# (1310, 1550 nm) or 2.4048255576958906 (780 nm), above the cutoff by rounding,
# and the tests turn warnings into errors
MULTIMODE_WARN_V = 2.405

SILICA_INDEX = 1.45


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
        if not all(map(math.isfinite, (self.v, self.u, self.w))):
            raise ValueError("mode parameters must be finite")
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
        if not 0.0 < self.waist_um < math.inf:
            raise ValueError("waist must be positive and finite")
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


def _characteristic(t: float, v: float) -> float:
    """U J1(U) K0(W) - W K1(W) J0(U) at W = V exp(t), U^2 = V^2 - W^2: the
    characteristic equation U J1(U)/J0(U) = W K1(W)/K0(W) multiplied through
    by J0(U) K0(W), which keeps its root and has no pole at the zero of J0."""
    w = v * math.exp(t)
    u = math.sqrt((v - w) * (v + w))
    j0u, j1u, k0w, k1w = float(j0(u)), float(j1(u)), float(k0(w)), float(k1(w))
    return u * j1u * k0w - w * k1w * j0u


def solve_characteristic(v: float) -> ModeSolution:
    """Fundamental root of U J1(U)/J0(U) = W K1(W)/K0(W), W^2 = V^2 - U^2.

    ``_falsi_root`` of ``_characteristic`` on t = ln(W/V), from 0 (U = 0, where
    it is -V K1(V)) down to U = 2.4048 above the cutoff or W = 2^-1022 below
    it, which are positive for V above 0.0531; below that floor W underflows
    and ``SolverError`` is raised.  The ends' signs are compared, not their
    product, which underflows for V above about 350.  The ceiling is
    K0(V) = 2^-970, about V = 669.3, where the function's values near the
    root approach the subnormals; above it ``SolverError`` is raised.
    5-17 evaluations up to the cutoff; U within 1e-15 of the root and ln W
    within 1e-15 max(100, |ln W|), K0(W)'s limit, up to the cutoff; above it
    U is within 1.2e-11, two roundings of W carried into sqrt((V - W)(V + W)).
    """
    if not 0.0 < v < math.inf:
        raise ValueError(f"V must be positive and finite, got {v}")
    if k0(v) < 2.0**-970:
        raise SolverError(f"V = {v} is above the solver's ceiling K0(V) = 2^-970, V ~ 669.3")
    c = SINGLE_MODE_CUTOFF_V
    lo = 0.5 * math.log((1.0 - c / v) * (1.0 + c / v)) if v > c else math.log(2.0**-1022 / v)
    f_lo, f_hi = _characteristic(min(lo, 0.0), v), _characteristic(0.0, v)
    if not (f_lo <= 0.0 <= f_hi or f_hi <= 0.0 <= f_lo):
        raise SolverError(f"no sign change on ln(W/V) in ({lo}, 0) for V = {v}")
    w = v * math.exp(_falsi_root(lambda t: _characteristic(t, v), lo, 0.0, f_lo, f_hi))
    return ModeSolution(v=v, u=math.sqrt((v - w) * (v + w)), w=w)


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
    if not np.all((r >= 0.0) & (r < math.inf)):
        raise ValueError("radius must be non-negative and finite")
    out = _field(r, fiber.core_radius_um, mode, _mode_constants(fiber, mode)[0])
    return float(out) if out.ndim == 0 else out


def _field(r: np.ndarray, a: float, mode: ModeSolution, clad_scale: float) -> np.ndarray:
    """``mode_field`` on radii already known to be a non-negative float array."""
    core = r <= a
    clad = ~core
    out = np.empty_like(r)
    out[core] = j0(mode.u * r[core] / a)
    out[clad] = clad_scale * k0(mode.w * r[clad] / a)
    return out


_TAIL_CUT = math.log(1e16)  # integrand truncated below 1e-16 of its peak

# Gauss-Legendre pair: the 48-point value is kept, its gap to the 24-point
# value is the panel's error estimate
_COARSE = 24
_COARSE_X, _COARSE_W = leggauss(_COARSE)
_FINE_X, _FINE_W = leggauss(2 * _COARSE)
_NODES = np.concatenate((_COARSE_X, _FINE_X))
_EPSREL = 1e-10
_MAX_PANELS = 300


def _panel_nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 24+48 abscissae of the panels (lo, hi), one row per panel."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid[:, None] + half[:, None] * _NODES


class _Panels(NamedTuple):
    """Adjacent panels (lo, hi) and their nodes, read-only; for the gate,
    each panel's half-width and the two ends as Python floats."""

    lo: np.ndarray
    hi: np.ndarray
    nodes: np.ndarray
    half: tuple[float, ...]
    start: float
    end: float


def _panels_between(lo: np.ndarray, hi: np.ndarray) -> _Panels:
    """The panels (lo, hi) with their nodes placed by ``_panel_nodes``."""
    nodes = _panel_nodes(lo, hi)
    for arr in (lo, hi, nodes):
        arr.flags.writeable = False
    half = tuple(0.5 * (b - a) for a, b in zip(lo.tolist(), hi.tolist()))
    return _Panels(lo, hi, nodes, half, float(lo[0]), float(hi[-1]))


def _gauss_legendre(fn, panels: _Panels, f: np.ndarray, floor: float = 0.0) -> float:
    """Adaptive integral of ``fn`` over ``panels``.

    ``f`` is the first pass: the integrand on the panels' nodes.  Two
    matrix-vector products give each panel's 48- and 24-point sums; the gate
    runs on them as Python floats.  Every pass bisects each panel whose
    24/48-point gap exceeds its width's share of 1e-10 max(|total|, floor),
    up to 300 panels, and calls ``fn``, which maps an array of abscissae to
    integrand values, once on the nodes of the halves.  Each pass's values
    and gaps are added with ``math.fsum`` to the totals of the panels kept
    before it; the summed gap is the error estimate that gates the result.
    ``floor`` sets the scale for an integral that cancels towards zero.
    """
    lo, hi, half = panels.lo, panels.hi, panels.half
    span = panels.end - panels.start
    done_val = done_err = 0.0
    n_panels = lo.size
    while True:
        fine = [h * s for h, s in zip(half, (f[:, _COARSE:] @ _FINE_W).tolist())]
        coarse = (f[:, :_COARSE] @ _COARSE_W).tolist()
        gap = [abs(x - h * s) for x, h, s in zip(fine, half, coarse)]
        val = done_val + _fsum(fine)
        tol = _EPSREL * max(abs(val), floor) * (2.0 / span)
        split = [g > tol * h for g, h in zip(gap, half)]
        n_split = sum(split)
        if n_split == 0 or n_panels + n_split > _MAX_PANELS:
            err = done_err + _fsum(gap)
            break
        done_val += _fsum([x for x, s in zip(fine, split) if not s])
        done_err += _fsum([g for g, s in zip(gap, split) if not s])
        lo, hi = lo[split], hi[split]
        mid = 0.5 * (hi + lo)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        n_panels += n_split
        half = [0.5 * (b - a) for a, b in zip(lo.tolist(), hi.tolist())]
        f = fn(_panel_nodes(lo, hi))
    # written to accept, so that a NaN error estimate fails it
    if not (math.isfinite(val) and (err <= 1e-8 * max(abs(val), floor) or err <= 1e-13)):
        raise QuadratureError(f"quadrature failed on ({panels.start}, {panels.end})")
    return val


def _fsum(terms: list[float]) -> float:
    """``math.fsum``, but NaN where it meets inf - inf and inf where the sum
    leaves the float range, as numpy's sum gives, for the caller's checks."""
    try:
        return math.fsum(terms)
    except ValueError:
        return math.nan
    except OverflowError:
        return math.inf


def _fiber_norm(fiber: StepIndexFiber, mode: ModeSolution) -> float:
    """Radial power integral of the fiber mode, in closed form (Snyder & Love)."""
    a2 = 0.5 * fiber.core_radius_um**2
    j0u, j1u = j0(mode.u), j1(mode.u)
    k0w, k1w = k0(mode.w), k1(mode.w)
    core = a2 * (j0u * j0u + j1u * j1u)
    clad = a2 * (j0u / k0w) ** 2 * (k1w * k1w - k0w * k0w)
    return float(core + clad)


@functools.lru_cache(maxsize=64)
def _mode_constants(fiber: StepIndexFiber, mode: ModeSolution) -> tuple[float, float]:
    """The cladding field scale J0(u)/K0(w) and ``_fiber_norm``, once per mode."""
    return j0(mode.u) / k0(mode.w), _fiber_norm(fiber, mode)


def _beam_integrand(
    r: np.ndarray, waist_um: float, fiber: StepIndexFiber, mode: ModeSolution
) -> np.ndarray:
    """Untilted overlap integrand: mode field x Gaussian x r."""
    field = _field(r, fiber.core_radius_um, mode, _mode_constants(fiber, mode)[0])
    return field * np.exp(-((r / waist_um) ** 2)) * r


def _panels(waist_um: float, fiber: StepIndexFiber, mode: ModeSolution) -> _Panels:
    """A beam's first-pass panels, out to where its overlap integrand falls
    to 1e-16 of its peak."""
    a = fiber.core_radius_um
    r_clad = a * (1.0 + _TAIL_CUT / mode.w + 2.0)
    r_gauss = waist_um * math.sqrt(_TAIL_CUT)
    r_max = max(min(r_clad, a + r_gauss), 1.01 * a)
    # panels cut so that a narrow Gaussian and the core edge are both resolved
    cuts = sorted({0.0, min(r_gauss, a), a, r_max})
    return _panels_between(np.array(cuts[:-1]), np.array(cuts[1:]))


class _Beam(NamedTuple):
    """A beam's first quadrature pass: its panels, the untilted integrand on
    their nodes (read-only), and the overlap's denominator ``_fiber_norm``
    times the Gaussian's power."""

    panels: _Panels
    first: np.ndarray
    norm: float


@functools.lru_cache(maxsize=64)
def _starting_panels(waist_um: float, fiber: StepIndexFiber, mode: ModeSolution) -> _Beam:
    """A beam's first quadrature pass, once per beam.

    Every tilt of the beam starts from the same panels, so each of its
    overlaps refines from this pass.
    """
    panels = _panels(waist_um, fiber, mode)
    first = _beam_integrand(panels.nodes, waist_um, fiber, mode)
    first.flags.writeable = False
    # the Gaussian's power out to r_gauss, where the integrand is 1e-16 of its peak
    gauss_norm = 0.25 * waist_um**2 * -math.expm1(-2.0 * _TAIL_CUT)
    return _Beam(panels, first, _mode_constants(fiber, mode)[1] * gauss_norm)


def _overlap_from_waist(
    waist_um: float,
    fiber: StepIndexFiber,
    mode: ModeSolution,
    tilt_wavenumber: float = 0.0,
) -> float:
    """Power overlap of a Gaussian of the given waist with the fiber mode.

    ``tilt_wavenumber`` is k0 sin(theta); a nonzero value inserts the
    azimuthally averaged phase-ramp kernel J0(k0 r sin(theta)).  The first
    quadrature pass is the beam's ``_starting_panels`` pass times that
    kernel; refinement passes evaluate the integrand afresh on their nodes.
    """

    def integrand(r: np.ndarray) -> np.ndarray:
        val = _beam_integrand(r, waist_um, fiber, mode)
        return val * j0(tilt_wavenumber * r) if tilt_wavenumber != 0.0 else val

    beam = _starting_panels(waist_um, fiber, mode)
    first = beam.first
    if tilt_wavenumber != 0.0:
        first = first * j0(tilt_wavenumber * beam.panels.nodes)
    num = _gauss_legendre(integrand, beam.panels, first)
    return min(num * num / beam.norm, 1.0)


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


class _Layout(NamedTuple):
    """The waist search's nodes: a waist's first-pass panels and the mode
    field times r on their nodes, for the slopes of that waist and every
    smaller one."""

    panels: _Panels
    field_r: np.ndarray
    fiber: StepIndexFiber
    mode: ModeSolution


def _layout(waist_um: float, fiber: StepIndexFiber, mode: ModeSolution) -> _Layout:
    """The first-pass panels of ``waist_um`` with the mode field times r on them."""
    panels = _panels(waist_um, fiber, mode)
    field = _field(panels.nodes, fiber.core_radius_um, mode, _mode_constants(fiber, mode)[0])
    return _Layout(panels, field * panels.nodes, fiber, mode)


def _stationarity(waist_um: float, layout: _Layout) -> float:
    """The overlap's waist slope up to a positive factor, on the search's layout.

    With N(w) the overlap numerator, sqrt(eta) is proportional to N/w, whose
    derivative is g(w)/w^2 with g = w N' - N, the integral of
    F(r) exp(-r^2/w^2) r (2 r^2/w^2 - 1).  The first pass multiplies the
    layout's F(r) r by the Gaussian and the factor; a layout placed for a
    waist at least ``waist_um`` reaches at least as far as this waist's own
    panels.  g vanishes at the optimum, so its refinement is gated on the
    scale of N, summed from the same first pass; a refinement pass evaluates
    the integrand afresh.
    """
    panels, field_r, fiber, mode = layout
    s = (panels.nodes / waist_um) ** 2
    gauss = field_r * np.exp(-s)
    sums = (gauss[:, _COARSE:] @ _FINE_W).tolist()
    scale = abs(_fsum([h * x for h, x in zip(panels.half, sums)]))

    def integrand(r: np.ndarray) -> np.ndarray:
        return _beam_integrand(r, waist_um, fiber, mode) * (2.0 * (r / waist_um) ** 2 - 1.0)

    return _gauss_legendre(integrand, panels, gauss * (2.0 * s - 1.0), scale)


def _falsi_root(fn, x0: float, x1: float, f0: float, f1: float) -> float:
    """Root of ``fn`` between x0 and x1, where f0 = fn(x0) and f1 = fn(x1)
    differ in sign or one of them is zero.

    Illinois regula falsi (Dowell & Jarratt, BIT 11, 168, 1971): each step
    replaces one end by the secant point, kept at least 2 ulps inside the
    bracket, and halves the value at the other end when that end is kept
    twice in a row.  It stops once the bracket is 4 ulps wide and returns
    the end where ``fn`` is nearer zero, so the root is a point that ``fn``
    was evaluated at.
    """
    # signs are compared, not multiplied: a product of two small values underflows
    while (f0 < 0.0 < f1 or f1 < 0.0 < f0) and abs(x1 - x0) > 4.0 * math.ulp(x1):
        x = x1 - f1 * (x1 - x0) / (f1 - f0)
        step = 2.0 * math.ulp(x1)
        x = min(max(x, min(x0, x1) + step), max(x0, x1) - step)
        fx = fn(x)
        if (fx > 0.0 and f1 > 0.0) or (fx < 0.0 and f1 < 0.0):
            f0 *= 0.5
        else:
            x0, f0 = x1, f1
        x1, f1 = x, fx
    return x1 if abs(f1) <= abs(f0) else x0


def optimize_waist(
    fiber: StepIndexFiber, mode: ModeSolution
) -> tuple[float, float]:
    """Best Gaussian waist for the mode on [0.2a, 5a]: (w_opt in um, eta_opt).

    The waist is the root of ``_stationarity``, bracketed first by 0.97 and
    1.03 times Marcuse's fit w/a = 0.65 + 1.619 V^-1.5 + 2.879 V^-6 (Bell
    Syst. Tech. J. 56, 703, 1977), clipped to the bounds; when the slope
    keeps its sign there, the bracket extends to the bound it points at, and
    that bound is the optimum when the slope keeps its sign up to it.  Every
    slope is taken on one ``_layout``, that of the bracket's upper waist,
    whose Gaussian cut is the widest the bracket needs; a bracket that
    extends up to 5a takes 5a's.  The root finder returns a waist it
    evaluated; its overlap fills the beam's ``_starting_panels`` entry.
    """
    a = fiber.core_radius_um
    lo, hi = 0.2 * a, 5.0 * a
    w_fit = a * (0.65 + 1.619 * mode.v**-1.5 + 2.879 * mode.v**-6)
    x0, x1 = max(0.97 * w_fit, lo), min(1.03 * w_fit, hi)
    if not x0 < x1:
        x0, x1 = lo, hi
    layout = _layout(x1, fiber, mode)
    g0, g1 = _stationarity(x0, layout), _stationarity(x1, layout)
    if g1 > 0.0 and x1 < hi:  # still rising: the optimum lies above the bracket
        layout = _layout(hi, fiber, mode)
        x0, g0, x1, g1 = x1, g1, hi, _stationarity(hi, layout)
    elif g0 < 0.0 and x0 > lo:  # already falling: it lies below
        x0, g0, x1, g1 = lo, _stationarity(lo, layout), x0, g0
    if g1 > 0.0:
        w_opt = hi
    elif g0 < 0.0:
        w_opt = lo
    else:
        w_opt = _falsi_root(lambda w: _stationarity(w, layout), x0, x1, g0, g1)
    return w_opt, _overlap_from_waist(w_opt, fiber, mode)


def fresnel_transmission(n0: float, n1: float) -> float:
    """Power transmission of the index step n0 -> n1 at normal incidence."""
    if not (1.0 <= n0 < math.inf and 1.0 <= n1 < math.inf):
        raise ValueError("refractive indices must be finite and at least 1")
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


def near_cutoff_smf(wavelength_nm: float) -> StepIndexFiber:
    """AR-coated silica fiber of numerical aperture ``NEAR_CUTOFF_NA`` sized
    to sit at the single-mode cutoff for the wavelength."""
    if not 0.0 < wavelength_nm < math.inf:
        raise ValueError("wavelength must be positive and finite")
    a = SINGLE_MODE_CUTOFF_V * (wavelength_nm * 1e-3) / (2.0 * math.pi * NEAR_CUTOFF_NA)
    n2 = math.sqrt(SILICA_INDEX**2 - NEAR_CUTOFF_NA**2)
    return StepIndexFiber(core_radius_um=a, n1=SILICA_INDEX, n2=n2, ar_coated=True)


def effective_coupling(target: StepIndexFiber | str, theta_tol_rad: float) -> float:
    """End-to-end facet coupling at a given alignment tolerance.

    For a step-index fiber this is the tilted mode overlap at the optimal
    waist times the facet transmission, at the telecom wavelength
    ``channel.TELECOM_NM`` that silica links use.  For the hollow-core
    design (pass the string ``"HCF"``) the tabulated constants apply: peak
    0.98 at zero tilt, 0.79 at the design tolerance.
    """
    if not 0.0 <= theta_tol_rad < math.inf:
        raise ValueError("tilt tolerance must be non-negative and finite")
    if isinstance(target, str) and target == "HCF":
        return HCF_PEAK_COUPLING if theta_tol_rad == 0.0 else HCF_COUPLING_AT_TOL
    if not isinstance(target, StepIndexFiber):
        raise TypeError(f"cannot model coupling for {target!r}")
    mode = fiber_mode(target, TELECOM_NM)
    w_opt, _ = optimize_waist(target, mode)
    beam = GaussianBeam(waist_um=w_opt, wavelength_nm=TELECOM_NM)
    return tilted_eta(beam, target, mode, theta_tol_rad) * facet_transmission(target)
