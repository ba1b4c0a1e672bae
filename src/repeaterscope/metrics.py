"""Operational cost accounting for medium comparisons.

Costs count the expected repeater operations actually performed in a burst:
each swap is one Bell measurement worth of gates, each distillation attempt
consumes a pair of two-qubit gates plus its herald measurements.  Level
totals are weighted by the probability that the burst is still running when
the level executes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .protocol import PerformancePoint


# gates and measurements charged per swap and per distillation attempt
SWAP_GATES = 1
SWAP_MEASUREMENTS = 2
DISTILL_GATES = 2
DISTILL_MEASUREMENTS = 2


@dataclass(frozen=True)
class OpCounts:
    """Expected per-burst operation totals."""

    swaps: float
    distill_attempts: float
    two_qubit_gates: float
    measurements: float


def ops_per_burst(swaps: Sequence[float], distill_attempts: Sequence[float]) -> OpCounts:
    """Expected swap and distillation operations in one burst, and their cost.

    ``swaps``/``distill_attempts`` hold the expected operations at each
    level, as the count recursion reports them (``CascadeBatch.swaps``).
    """
    swap_total = float(sum(swaps, 0.0))
    distills = float(sum(distill_attempts, 0.0))
    return OpCounts(
        swaps=swap_total,
        distill_attempts=distills,
        two_qubit_gates=swap_total * SWAP_GATES + distills * DISTILL_GATES,
        measurements=swap_total * SWAP_MEASUREMENTS + distills * DISTILL_MEASUREMENTS,
    )


def ops_per_secret_bit(point: "PerformancePoint") -> float:
    """Two-qubit gates spent per delivered secret bit; inf in no-key regimes."""
    secret_bits = point.skr_pcu * point.m * (1 << point.n)
    if secret_bits <= 0.0:
        return math.inf
    return point.ops.two_qubit_gates / secret_bits

