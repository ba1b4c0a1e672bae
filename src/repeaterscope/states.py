"""Bell-diagonal two-qubit states and the local noise channels acting on them.

All operations are pure functions over immutable values.  States are kept
normalized (coefficient sum 1 within 1e-12) and non-negative; every channel
below preserves both properties exactly up to floating-point rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_SUM_TOL = 1e-12

# infidelity of the heralded elementary link per unit gate error
HERALD_INFIDELITY = 1.25


class DegenerateInputError(ValueError):
    """Raised when a heralded operation has zero acceptance probability."""


@dataclass(frozen=True)
class BellDiagonal:
    """Two-qubit state diagonal in the Bell basis.

    Coefficients (a, b, c, d) weight (phi+, phi-, psi+, psi-) respectively.
    The pair fidelity is the phi+ weight, i.e. ``fidelity() == a``.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        coeffs = (self.a, self.b, self.c, self.d)
        if any(not (0.0 <= x <= 1.0) for x in coeffs):
            raise ValueError(f"Bell coefficients must lie in [0, 1], got {coeffs}")
        if abs(sum(coeffs) - 1.0) > _SUM_TOL:
            raise ValueError(f"Bell coefficients must sum to 1, got {sum(coeffs)!r}")

    def fidelity(self) -> float:
        return self.a

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class NoiseParams:
    """Local noise model: two-qubit gate error, measurement error, memory T2.

    ``eps_g`` lies in [0, 0.8]: at 0.8 the heralded link's fidelity
    ``1 - 1.25 eps_g`` reaches 0.  The measurement error ``xi`` is
    ``eps_g / 4``.
    """

    eps_g: float
    t2: float = math.inf

    def __post_init__(self) -> None:
        top = 1.0 / HERALD_INFIDELITY
        if not 0.0 <= self.eps_g <= top:
            raise ValueError(f"eps_g must lie in [0, {top}], got {self.eps_g}")
        if not self.t2 > 0.0:
            raise ValueError(f"t2 must be positive, got {self.t2}")

    @property
    def xi(self) -> float:
        return self.eps_g / 4.0


def werner(fidelity: float) -> BellDiagonal:
    """Werner state: phi+ weight ``fidelity``, remainder spread evenly."""
    rest = (1.0 - fidelity) / 3.0
    return BellDiagonal(fidelity, rest, rest, rest)


def initial_state(eps_g: float) -> BellDiagonal:
    """Elementary-link state right after heralded generation.

    Gate and preparation imperfections reduce the fidelity to
    ``1 - 1.25 * eps_g``; the loss is spread evenly over the other three
    Bell components (Werner form).
    """
    return werner(1.0 - HERALD_INFIDELITY * eps_g)


def apply_dephasing(state: BellDiagonal, t: float, t2: float) -> BellDiagonal:
    """Pure memory dephasing for storage time ``t`` with coherence time ``t2``.

    Z-dephasing on one stored qubit mixes within the (phi+, phi-) and
    (psi+, psi-) doublets with weight ``lam = (1 + exp(-2 t / t2)) / 2``.
    Satisfies the semigroup law in ``t`` exactly.
    """
    if t < 0.0:
        raise ValueError(f"storage time must be non-negative, got {t}")
    lam = 0.5 * (1.0 + math.exp(-2.0 * t / t2))
    mix = 1.0 - lam
    return BellDiagonal(
        lam * state.a + mix * state.b,
        lam * state.b + mix * state.a,
        lam * state.c + mix * state.d,
        lam * state.d + mix * state.c,
    )


def _depolarize(state: BellDiagonal, weight: float) -> tuple[float, float, float, float]:
    keep = 1.0 - weight
    return tuple(keep * x + weight / 4.0 for x in state.as_tuple())


def swap(s1: BellDiagonal, s2: BellDiagonal, noise: NoiseParams) -> BellDiagonal:
    """Entanglement swapping of two Bell-diagonal pairs at a middle node.

    The ideal Bell measurement plus Pauli correction composes the two Pauli
    error labels, i.e. an XOR convolution over the labels
    a=(0,0), b=(0,1), c=(1,0), d=(1,1).  The noisy measurement then mixes in
    a uniform component with weight ``eps_g`` and applies X/Z label flips for
    misread measurement outcomes (probability ``xi`` per measured bit).
    """
    a1, b1, c1, d1 = s1.as_tuple()
    a2, b2, c2, d2 = s2.as_tuple()
    a = a1 * a2 + b1 * b2 + c1 * c2 + d1 * d2
    b = a1 * b2 + b1 * a2 + c1 * d2 + d1 * c2
    c = a1 * c2 + c1 * a2 + b1 * d2 + d1 * b2
    d = a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2

    eg = noise.eps_g
    a, b, c, d = ((1.0 - eg) * x + eg / 4.0 for x in (a, b, c, d))

    xi = noise.xi
    p_id = (1.0 - xi) * (1.0 - xi)
    p_one = xi * (1.0 - xi)
    p_both = xi * xi
    return BellDiagonal(
        p_id * a + p_one * (c + b) + p_both * d,
        p_id * b + p_one * (d + a) + p_both * c,
        p_id * c + p_one * (a + d) + p_both * b,
        p_id * d + p_one * (b + c) + p_both * a,
    )


def dejmps(
    s1: BellDiagonal, s2: BellDiagonal, noise: NoiseParams
) -> tuple[BellDiagonal, float]:
    """One 2->1 DEJMPS distillation round; returns (output state, success prob).

    Each input passes through a depolarizing channel of strength ``eps_g``
    (one noisy two-qubit gate per node).  The coincidence / anti-coincidence
    branch states follow from the label calculus of the bilateral CNOT after
    the +-i X pre-rotations; measurement misreads with probability ``xi``
    mix the accepted branch accordingly.  At ``xi = 0`` this reduces exactly
    to the ideal map applied to the depolarized inputs.
    """
    a1, b1, c1, d1 = _depolarize(s1, noise.eps_g)
    a2, b2, c2, d2 = _depolarize(s2, noise.eps_g)

    coinc = (
        a1 * a2 + d1 * d2,
        a1 * d2 + d1 * a2,
        c1 * c2 + b1 * b2,
        c1 * b2 + b1 * c2,
    )
    anti = (
        a1 * c2 + d1 * b2,
        a1 * b2 + d1 * c2,
        c1 * a2 + b1 * d2,
        c1 * d2 + b1 * a2,
    )
    n_coinc = sum(coinc)

    xi = noise.xi
    w_keep = (1.0 - xi) ** 2 + xi**2
    w_flip = 2.0 * xi * (1.0 - xi)
    accepted = w_keep * n_coinc + w_flip * (1.0 - n_coinc)
    if accepted <= 0.0:
        raise DegenerateInputError("DEJMPS acceptance probability vanished")

    out = tuple((w_keep * u + w_flip * v) / accepted for u, v in zip(coinc, anti))
    return BellDiagonal(*out), accepted


def binary_entropy(p: float) -> float:
    """Binary entropy in bits with exact 0*log(0) = 0 handling."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def key_fraction(state: BellDiagonal) -> float:
    """Asymptotic BB84 secret fraction max(0, 1 - h(eX) - h(eZ)).

    The bit error rate eZ is the psi weight (c + d); the phase error rate eX
    is the minus-sign weight (b + d).
    """
    e_z = state.c + state.d
    e_x = state.b + state.d
    return max(0.0, 1.0 - binary_entropy(e_x) - binary_entropy(e_z))
