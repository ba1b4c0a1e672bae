"""Fiber media, link budgets, and elementary-link success probabilities.

Attenuation lengths are stored as a wavelength-keyed table (the models here
use exactly three constants).  The memory-native wavelength is 780 nm;
telecom transmission at 1550 nm pays the bidirectional frequency-conversion
efficiency on top of the common hardware and facet-coupling factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MEMORY_NM = 780
TELECOM_NM = 1550

# adopted memory-to-fiber facet couplings.  Hollow-core (double-nested
# anti-resonant) designs need a vector mode solve, so they enter as tabulated
# constants: peak 0.98, and 0.79 at the 0.025 rad design tilt tolerance.  The
# silica value is the one the near-cutoff preset's tilted overlap derives at
# the same tolerance (``repeaterscope couple``).
HCF_PEAK_COUPLING = 0.98
HCF_COUPLING_AT_TOL = 0.79
SMF_COUPLING_AT_TOL = 0.83

# default signal velocity in km/s, shared by both media for comparability;
# override per profile for medium-specific studies
DEFAULT_SIGNAL_VELOCITY = 2.0e5


class ConfigurationError(ValueError):
    """Raised for inconsistent medium or budget configuration."""


@dataclass(frozen=True)
class MediumProfile:
    """Transmission-medium constants: attenuation table, coupling, velocity."""

    name: str
    att_length_km: dict[int, float]  # its keys are the medium's wavelengths
    coupling_mem_fiber: float
    signal_velocity_kms: float = DEFAULT_SIGNAL_VELOCITY

    def __post_init__(self) -> None:
        if not self.att_length_km:
            raise ConfigurationError("medium allows no wavelength")
        if any(not w > 0 for w in self.att_length_km):
            raise ConfigurationError("wavelengths must be positive")
        if any(not 0.0 < l < math.inf for l in self.att_length_km.values()):
            raise ConfigurationError("attenuation lengths must be positive and finite")
        if not 0.0 <= self.coupling_mem_fiber <= 1.0:
            raise ConfigurationError("coupling efficiency must lie in [0, 1]")
        if not 0.0 < self.signal_velocity_kms < math.inf:
            raise ConfigurationError("signal velocity must be positive and finite")
        if self.name.upper() == "SMF" and MEMORY_NM in self.att_length_km:
            raise ConfigurationError(
                "silica SMF is not operated at the memory wavelength"
            )


@dataclass(frozen=True)
class LinkBudget:
    """Non-fiber efficiencies of one elementary link plus its length."""

    eta_hardware: float
    conv_eff: float
    l0_km: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta_hardware <= 1.0:
            raise ConfigurationError("eta_hardware must lie in [0, 1]")
        if not 0.0 <= self.conv_eff <= 1.0:
            raise ConfigurationError("conv_eff must lie in [0, 1]")
        if not 0.0 < self.l0_km < math.inf:
            raise ConfigurationError("inter-repeater spacing must be positive and finite")


def smf_profile() -> MediumProfile:
    """Conventional silica single-mode fiber, telecom band only."""
    return MediumProfile(
        name="SMF",
        att_length_km={TELECOM_NM: 28.95},
        coupling_mem_fiber=SMF_COUPLING_AT_TOL,
    )


def hcf_profile() -> MediumProfile:
    """Nested anti-resonant hollow-core fiber, memory-native and telecom."""
    return MediumProfile(
        name="HCF",
        att_length_km={MEMORY_NM: 24.127, TELECOM_NM: 78.96},
        coupling_mem_fiber=HCF_COUPLING_AT_TOL,
    )


def default_media() -> dict[str, MediumProfile]:
    return {"SMF": smf_profile(), "HCF": hcf_profile()}


def eta_c(medium: MediumProfile, budget: LinkBudget, wavelength_nm: int) -> float:
    """Effective coupling efficiency of one photon from memory to detection.

    At the memory-native wavelength no conversion runs; elsewhere the
    bidirectional conversion efficiency multiplies in.
    """
    if wavelength_nm not in medium.att_length_km:
        raise ConfigurationError(
            f"{wavelength_nm} nm is not allowed on {medium.name}"
        )
    eta = budget.eta_hardware * medium.coupling_mem_fiber
    if wavelength_nm != MEMORY_NM:
        eta *= budget.conv_eff
    return eta


def elementary_success(
    medium: MediumProfile, budget: LinkBudget, wavelength_nm: int
) -> float:
    """Probability that one multiplexed generation attempt heralds a pair.

    Both photons must reach the midpoint analyzer, so the coupling enters
    squared; the analyzer itself succeeds at most half the time.
    """
    eta = eta_c(medium, budget, wavelength_nm)
    att = medium.att_length_km[wavelength_nm]
    return 0.5 * eta * eta * math.exp(-budget.l0_km / att)


def select_wavelength(
    medium: MediumProfile, budget: LinkBudget
) -> tuple[int, float]:
    """Pick the medium's wavelength maximizing the link success probability.

    Ties resolve toward 1550 nm.
    """
    pi0, _, best = max(
        (elementary_success(medium, budget, wl), wl == TELECOM_NM, wl)
        for wl in medium.att_length_km
    )
    return best, pi0


def conversion_threshold(medium: MediumProfile, l0_km: float) -> float:
    """Conversion efficiency at which direct and telecom transmission tie.

    Below the returned value the memory-native wavelength wins.  NaN on a
    medium that lacks 780 or 1550 nm, where there is no choice to make.
    """
    if not {MEMORY_NM, TELECOM_NM} <= medium.att_length_km.keys():
        return math.nan
    inv_diff = 1.0 / medium.att_length_km[MEMORY_NM] - 1.0 / medium.att_length_km[
        TELECOM_NM
    ]
    return math.exp(-0.5 * l0_km * inv_diff)
