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


@dataclass(frozen=True)
class CostModel:
    """Gate and measurement counts charged per operation type."""

    swap_gates: int = 1
    swap_measurements: int = 2
    distill_gates: int = 2
    distill_measurements: int = 2

    def __post_init__(self) -> None:
        if min(
            self.swap_gates,
            self.swap_measurements,
            self.distill_gates,
            self.distill_measurements,
        ) < 0:
            raise ValueError("operation costs must be non-negative")


@dataclass(frozen=True)
class OpCounts:
    """Expected per-burst operation totals."""

    swaps: float
    distill_attempts: float
    two_qubit_gates: float
    measurements: float


def ops_per_burst(
    swaps: Sequence[float],
    distill_attempts: Sequence[float],
    cost: CostModel | None = None,
) -> OpCounts:
    """Expected swap and distillation operations in one burst, and their cost.

    ``swaps``/``distill_attempts`` hold the expected operations at each
    level, as the count recursion reports them (``CascadeBatch.swaps``).
    """
    cost = cost or CostModel()
    swap_total = float(sum(swaps, 0.0))
    distills = float(sum(distill_attempts, 0.0))
    return OpCounts(
        swaps=swap_total,
        distill_attempts=distills,
        two_qubit_gates=swap_total * cost.swap_gates + distills * cost.distill_gates,
        measurements=swap_total * cost.swap_measurements
        + distills * cost.distill_measurements,
    )


def ops_per_secret_bit(point: "PerformancePoint") -> float:
    """Two-qubit gates spent per delivered secret bit; inf in no-key regimes."""
    secret_bits = point.skr_pcu * point.m * (1 << point.n)
    if secret_bits <= 0.0:
        return math.inf
    return point.ops.two_qubit_gates / secret_bits

