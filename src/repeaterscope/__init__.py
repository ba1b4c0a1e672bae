"""Deterministic performance models for multiplexed two-way quantum repeater chains.

Submodules
----------
states    Bell-diagonal state algebra, local noise channels, key fraction.
channel   Fiber media, facet constants, link budgets, elementary-link success.
coupling  Scalar step-index mode solver and Gaussian facet coupling.
cascade   Recursive pair-count distributions across nesting levels.
protocol  Distillation schedule, end-to-end chain evaluation, gates per secret bit.
metrics   Operation prices and per-burst counts; imports no other submodule.
sweep     Parameter sweeps, depth optimization, figure presets, CSV output.
oracle    Slow references: the test suite's, and the sampler of ``chain --oracle``.
"""

__version__ = "0.1.0"
