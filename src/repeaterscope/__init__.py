"""Deterministic performance models for multiplexed two-way quantum repeater chains.

Submodules
----------
states    Bell-diagonal state algebra, local noise channels, key fraction.
channel   Fiber media, link budgets, elementary-link success probability.
coupling  Scalar step-index mode solver and Gaussian facet coupling.
cascade   Recursive pair-count distributions across nesting levels.
protocol  Static distillation schedule and end-to-end chain evaluation.
metrics   Operation counts at fixed prices, gates per secret bit.
sweep     Parameter sweeps, depth optimization, figure presets, CSV output.
oracle    Slow reference implementations used by the test suite.
"""

__version__ = "0.1.0"
